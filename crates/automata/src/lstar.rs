//! Angluin's L\* algorithm for learning regular languages (paper §3.4).
//!
//! The learner maintains an observation table `(S, E, T)`: `S` is a prefix-closed
//! set of access strings, `E` a suffix-closed set of test strings, and `T` caches
//! membership answers. When the table is *closed* and *consistent* a hypothesis DFA
//! is read off; a counterexample refines the table by adding all of its prefixes to
//! `S` (Angluin's original strategy).
//!
//! Equivalence queries are simulated, exactly as V-Star does for its VPA learner:
//! either by exhaustively checking all strings up to a length bound, or by checking
//! a caller-supplied pool of test strings (paper §5.2 uses prefix/suffix
//! combinations of nesting patterns for token learning).

use std::collections::{BTreeMap, BTreeSet};

use crate::cache::QueryCache;
use crate::dfa::Dfa;

/// How the learner simulates equivalence queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivalenceMode {
    /// Test every string over the alphabet up to the given length.
    Bounded(usize),
    /// Test exactly the given strings.
    TestStrings(Vec<String>),
}

/// Configuration for [`LStar`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LStarConfig {
    /// Equivalence-query simulation strategy.
    pub equivalence: EquivalenceMode,
}

/// Upper bound on refinement rounds (defensive; the algorithm terminates long
/// before this for regular targets).
const MAX_ROUNDS: usize = 200;

impl LStarConfig {
    /// Simulate equivalence queries by enumerating all strings up to `max_len`.
    #[must_use]
    pub fn bounded_equivalence(max_len: usize) -> Self {
        LStarConfig { equivalence: EquivalenceMode::Bounded(max_len) }
    }

    /// Simulate equivalence queries with an explicit pool of test strings.
    #[must_use]
    pub fn with_test_strings(tests: Vec<String>) -> Self {
        LStarConfig { equivalence: EquivalenceMode::TestStrings(tests) }
    }
}

/// Counters describing a completed L\* run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LStarStats {
    /// Number of *unique* membership queries issued (cache misses).
    pub membership_queries: usize,
    /// Number of simulated equivalence queries issued.
    pub equivalence_queries: usize,
    /// Number of counterexamples processed.
    pub counterexamples: usize,
}

/// The observation-table learner.
pub struct LStar<'a> {
    alphabet: Vec<char>,
    oracle: &'a dyn Fn(&str) -> bool,
    config: LStarConfig,
    s: Vec<String>,
    e: Vec<String>,
    cache: QueryCache,
    stats: LStarStats,
}

impl<'a> std::fmt::Debug for LStar<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LStar")
            .field("alphabet", &self.alphabet)
            .field("s", &self.s)
            .field("e", &self.e)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<'a> LStar<'a> {
    /// Creates a learner for the language decided by `oracle` over `alphabet`.
    #[must_use]
    pub fn new(alphabet: &[char], oracle: &'a dyn Fn(&str) -> bool, config: LStarConfig) -> Self {
        LStar {
            alphabet: alphabet.to_vec(),
            oracle,
            config,
            s: vec![String::new()],
            e: vec![String::new()],
            cache: QueryCache::for_site("lstar"),
            stats: LStarStats::default(),
        }
    }

    /// Statistics of the run so far.
    #[must_use]
    pub fn stats(&self) -> LStarStats {
        LStarStats { membership_queries: self.cache.unique_queries(), ..self.stats }
    }

    fn member(&mut self, s: &str) -> bool {
        let oracle = self.oracle;
        self.cache.query(s, oracle)
    }

    fn row(&mut self, prefix: &str) -> Vec<bool> {
        let suffixes = self.e.clone();
        suffixes.iter().map(|e| self.member(&format!("{prefix}{e}"))).collect()
    }

    fn close_and_make_consistent(&mut self) {
        loop {
            // Closedness: every one-symbol extension of an S row must equal some S row.
            let mut changed = false;
            let s_rows: Vec<(String, Vec<bool>)> =
                self.s.clone().into_iter().map(|p| (p.clone(), self.row(&p))).collect();
            'outer: for (p, _) in &s_rows {
                for &a in &self.alphabet.clone() {
                    let ext = format!("{p}{a}");
                    let ext_row = self.row(&ext);
                    if !s_rows.iter().any(|(_, r)| *r == ext_row) && !self.s.contains(&ext) {
                        self.s.push(ext);
                        changed = true;
                        break 'outer;
                    }
                }
            }
            if changed {
                continue;
            }
            // Consistency: equal S rows must stay equal under every one-symbol extension.
            let s_list = self.s.clone();
            'cons: for i in 0..s_list.len() {
                for j in i + 1..s_list.len() {
                    let (ri, rj) = (self.row(&s_list[i]), self.row(&s_list[j]));
                    if ri != rj {
                        continue;
                    }
                    for &a in &self.alphabet.clone() {
                        let (ra, rb) = (
                            self.row(&format!("{}{a}", s_list[i])),
                            self.row(&format!("{}{a}", s_list[j])),
                        );
                        if ra != rb {
                            // Find the distinguishing suffix and add `a`+suffix to E.
                            let k =
                                ra.iter().zip(&rb).position(|(x, y)| x != y).expect("rows differ");
                            let new_e = format!("{a}{}", self.e[k]);
                            if !self.e.contains(&new_e) {
                                self.e.push(new_e);
                                changed = true;
                                break 'cons;
                            }
                        }
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    fn hypothesis(&mut self) -> Dfa {
        let mut row_ids: BTreeMap<Vec<bool>, usize> = BTreeMap::new();
        let mut reps: Vec<String> = Vec::new();
        for p in self.s.clone() {
            let r = self.row(&p);
            if !row_ids.contains_key(&r) {
                let id = row_ids.len();
                row_ids.insert(r, id);
                reps.push(p);
            }
        }
        let mut transitions = BTreeMap::new();
        let mut accepting = BTreeSet::new();
        let eps_index = self.e.iter().position(String::is_empty).expect("ε is always in E");
        for (id, rep) in reps.clone().into_iter().enumerate() {
            let r = self.row(&rep);
            if r[eps_index] {
                accepting.insert(id);
            }
            for &a in &self.alphabet.clone() {
                let target_row = self.row(&format!("{rep}{a}"));
                if let Some(&t) = row_ids.get(&target_row) {
                    transitions.insert((id, a), t);
                }
                // A missing target can only happen transiently; closedness restores it.
            }
        }
        let initial_row = self.row("");
        let initial = row_ids[&initial_row];
        Dfa::new(self.alphabet.clone(), row_ids.len(), initial, accepting, transitions)
    }

    fn find_counterexample(&mut self, dfa: &Dfa) -> Option<String> {
        self.stats.equivalence_queries += 1;
        match self.config.equivalence.clone() {
            EquivalenceMode::Bounded(max_len) => {
                let mut frontier = vec![String::new()];
                for len in 0..=max_len {
                    for w in &frontier {
                        if self.member(w) != dfa.accepts(w) {
                            return Some(w.clone());
                        }
                    }
                    if len == max_len {
                        break;
                    }
                    let mut next = Vec::with_capacity(frontier.len() * self.alphabet.len());
                    for w in &frontier {
                        for &a in &self.alphabet {
                            next.push(format!("{w}{a}"));
                        }
                    }
                    frontier = next;
                }
                None
            }
            EquivalenceMode::TestStrings(tests) => {
                for w in tests {
                    if self.member(&w) != dfa.accepts(&w) {
                        return Some(w);
                    }
                }
                None
            }
        }
    }

    /// Runs the learner to completion and returns the final hypothesis DFA
    /// (minimized).
    pub fn learn(&mut self) -> Dfa {
        self.close_and_make_consistent();
        for _ in 0..MAX_ROUNDS {
            let hyp = self.hypothesis();
            match self.find_counterexample(&hyp) {
                None => return hyp.minimized(),
                Some(cex) => {
                    self.stats.counterexamples += 1;
                    // Add every prefix of the counterexample to S (Angluin 1987).
                    let chars: Vec<char> = cex.chars().collect();
                    for i in 0..=chars.len() {
                        let p: String = chars[..i].iter().collect();
                        if !self.s.contains(&p) {
                            self.s.push(p);
                        }
                    }
                    self.close_and_make_consistent();
                }
            }
        }
        self.hypothesis().minimized()
    }
}

/// One-shot convenience wrapper around [`LStar`].
pub fn learn_dfa(alphabet: &[char], oracle: &dyn Fn(&str) -> bool, config: &LStarConfig) -> Dfa {
    LStar::new(alphabet, oracle, config.clone()).learn()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn exhaustive_agreement(
        target: &dyn Fn(&str) -> bool,
        dfa: &Dfa,
        alphabet: &[char],
        max_len: usize,
    ) {
        let mut frontier = vec![String::new()];
        for _ in 0..=max_len {
            for w in &frontier {
                assert_eq!(target(w), dfa.accepts(w), "disagreement on {w:?}");
            }
            let mut next = Vec::new();
            for w in &frontier {
                for &a in alphabet {
                    next.push(format!("{w}{a}"));
                }
            }
            frontier = next;
        }
    }

    #[test]
    fn learns_even_number_of_as() {
        let alphabet = ['a', 'b'];
        let oracle = |s: &str| s.chars().filter(|&c| c == 'a').count() % 2 == 0;
        let dfa = learn_dfa(&alphabet, &oracle, &LStarConfig::bounded_equivalence(6));
        assert_eq!(dfa.state_count(), 2);
        exhaustive_agreement(&oracle, &dfa, &alphabet, 6);
    }

    #[test]
    fn learns_regex_language() {
        let re = Regex::parse("(ab|ba)*").unwrap();
        let alphabet = ['a', 'b'];
        let oracle = move |s: &str| re.is_match(s);
        let dfa = learn_dfa(&alphabet, &oracle, &LStarConfig::bounded_equivalence(6));
        exhaustive_agreement(&oracle, &dfa, &alphabet, 6);
    }

    #[test]
    fn learns_token_like_language_with_test_strings() {
        // XML-open-tag-like token: "<" [a-z]+ ">"
        let re = Regex::parse("<[a-z]+>").unwrap();
        let alphabet: Vec<char> = vec!['<', '>', 'a', 'b'];
        let oracle = move |s: &str| re.is_match(s);
        let tests: Vec<String> =
            ["", "<", ">", "<>", "<a>", "<ab>", "<aab>", "a", "<a", "a>", "<a>>", "<<a>"]
                .iter()
                .map(ToString::to_string)
                .collect();
        let dfa = learn_dfa(&alphabet, &oracle, &LStarConfig::with_test_strings(tests));
        assert!(dfa.accepts("<a>"));
        assert!(dfa.accepts("<ab>"));
        assert!(!dfa.accepts("<>"));
        assert!(!dfa.accepts("a>"));
    }

    #[test]
    fn learns_finite_language() {
        let members = ["", "ab", "abab"];
        let alphabet = ['a', 'b'];
        let oracle = move |s: &str| members.contains(&s);
        let dfa = learn_dfa(&alphabet, &oracle, &LStarConfig::bounded_equivalence(6));
        exhaustive_agreement(&oracle, &dfa, &alphabet, 6);
    }

    #[test]
    fn stats_are_recorded() {
        let alphabet = ['a'];
        let oracle = |s: &str| s.len() % 3 == 0;
        let mut learner = LStar::new(&alphabet, &oracle, LStarConfig::bounded_equivalence(7));
        let dfa = learner.learn();
        assert_eq!(dfa.state_count(), 3);
        let stats = learner.stats();
        assert!(stats.membership_queries > 0);
        assert!(stats.equivalence_queries >= 1);
    }

    #[test]
    fn minimality_of_result() {
        // Strings over {a,b} ending in "ab": minimal DFA has 3 states.
        let alphabet = ['a', 'b'];
        let oracle = |s: &str| s.ends_with("ab");
        let dfa = learn_dfa(&alphabet, &oracle, &LStarConfig::bounded_equivalence(7));
        assert_eq!(dfa.state_count(), 3);
        exhaustive_agreement(&oracle, &dfa, &alphabet, 7);
    }

    #[test]
    fn learning_with_random_target_dfas_is_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let alphabet = ['a', 'b'];
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            // Random complete DFA with 1..=4 states.
            let n = rng.gen_range(1..=4usize);
            let mut transitions = std::collections::BTreeMap::new();
            for s in 0..n {
                for &c in &alphabet {
                    transitions.insert((s, c), rng.gen_range(0..n));
                }
            }
            let mut accepting = std::collections::BTreeSet::new();
            for s in 0..n {
                if rng.gen_bool(0.5) {
                    accepting.insert(s);
                }
            }
            let target = Dfa::new(alphabet.to_vec(), n, 0, accepting, transitions);
            let t2 = target.clone();
            let oracle = move |s: &str| t2.accepts(s);
            let learned =
                learn_dfa(&alphabet, &oracle, &LStarConfig::bounded_equivalence(2 * n + 2));
            exhaustive_agreement(&|s| target.accepts(s), &learned, &alphabet, 2 * n + 2);
            assert!(learned.state_count() <= target.minimized().state_count());
        }
    }
}
