//! An ARVADA-style baseline (Kulkarni et al. 2022).
//!
//! ARVADA learns a CFG by "bubbling" substrings of the seeds into fresh
//! nonterminals and merging nonterminals whose yields are *interchangeable*: if
//! swapping the strings derived by two nonterminals (in the contexts where they
//! occur) keeps the inputs valid according to the oracle, the two are given the
//! same label. Merging a bubble with a nonterminal that occurs inside it creates
//! recursion, which is how ARVADA can learn nested structure heuristically.
//!
//! This implementation follows that recipe on character-level sequences:
//! character-class discovery by swap checks, repeated-span bubbling, and
//! interchangeability-based merging, with all checks counted as membership queries.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cfg::{Cfg, SymbolRef};
use crate::LearnedGrammar;

/// Maximum length (in symbols) of a bubbled span.
const MAX_BUBBLE_LEN: usize = 4;

/// Number of bubbling/merging rounds.
const ROUNDS: usize = 8;

/// Number of swap checks per interchangeability test.
const MERGE_CHECKS: usize = 4;

/// RNG seed (the original tool is randomised; the paper reports means over 10
/// runs).
const RNG_SEED: u64 = 11;

/// The learned ARVADA-style grammar.
#[derive(Clone, Debug)]
pub struct Arvada {
    cfg: Cfg,
    queries: usize,
}

impl Arvada {
    /// Learns a CFG from the seeds and a membership oracle.
    pub fn learn(oracle: &dyn Fn(&str) -> bool, seeds: &[String]) -> Self {
        let queries = Cell::new(0usize);
        let check = |s: &str| {
            queries.set(queries.get() + 1);
            oracle(s)
        };
        let mut learner = Learner::new(seeds);
        learner.discover_character_classes(&check);
        for _ in 0..ROUNDS {
            if !learner.bubble_and_merge(&check) {
                break;
            }
        }
        Arvada { cfg: learner.into_cfg(), queries: queries.get() }
    }

    /// The learned CFG.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }
}

impl LearnedGrammar for Arvada {
    fn accepts(&self, input: &str) -> bool {
        self.cfg.accepts(input)
    }

    fn sample(&self, rng: &mut dyn rand::RngCore, budget: usize) -> Option<String> {
        self.cfg.sample(rng, budget)
    }

    fn queries_used(&self) -> usize {
        self.queries
    }
}

/// Internal working representation: the start symbol's alternatives (one per seed)
/// plus a pool of learned nonterminals with their alternatives.
struct Learner {
    /// Alternatives of the start symbol, one sequence per seed.
    root_alts: Vec<Vec<Sym>>,
    /// Learned nonterminals: `classes[i]` = alternatives (sequences).
    classes: Vec<Vec<Vec<Sym>>>,
    rng: StdRng,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Sym {
    T(char),
    N(usize),
}

impl Learner {
    fn new(seeds: &[String]) -> Self {
        Learner {
            root_alts: seeds.iter().map(|s| s.chars().map(Sym::T).collect()).collect(),
            classes: Vec::new(),
            rng: StdRng::seed_from_u64(RNG_SEED),
        }
    }

    /// A shortest-ish terminal yield of a symbol (for building check strings).
    fn yield_of(&self, sym: Sym, depth: usize) -> String {
        match sym {
            Sym::T(c) => c.to_string(),
            Sym::N(i) if depth < 8 => {
                let alts = &self.classes[i];
                let alt = alts.iter().min_by_key(|a| a.len()).cloned().unwrap_or_default();
                alt.iter().map(|&s| self.yield_of(s, depth + 1)).collect()
            }
            Sym::N(_) => String::new(),
        }
    }

    fn yield_of_seq(&self, seq: &[Sym]) -> String {
        seq.iter().map(|&s| self.yield_of(s, 0)).collect()
    }

    /// Discovers character classes: characters that are pairwise interchangeable in
    /// every root alternative are grouped under one nonterminal (this mirrors
    /// ARVADA's pre-tokenization of digit/letter runs).
    fn discover_character_classes(&mut self, check: &dyn Fn(&str) -> bool) {
        let mut chars: BTreeSet<char> = BTreeSet::new();
        for alt in &self.root_alts {
            for &s in alt {
                if let Sym::T(c) = s {
                    chars.insert(c);
                }
            }
        }
        // Only letters and digits are candidates for classing (punctuation is
        // almost never interchangeable in practical grammars).
        let candidates: Vec<char> =
            chars.iter().copied().filter(|c| c.is_ascii_alphanumeric()).collect();
        let mut groups: Vec<Vec<char>> = Vec::new();
        'outer: for &c in &candidates {
            for group in &mut groups {
                let rep = group[0];
                if self.interchangeable_chars(check, c, rep) {
                    group.push(c);
                    continue 'outer;
                }
            }
            groups.push(vec![c]);
        }
        for group in groups.into_iter().filter(|g| g.len() > 1) {
            let class_id = self.classes.len();
            self.classes.push(group.iter().map(|&c| vec![Sym::T(c)]).collect());
            let members: BTreeSet<char> = group.into_iter().collect();
            for alt in &mut self.root_alts {
                for sym in alt.iter_mut() {
                    if let Sym::T(c) = *sym {
                        if members.contains(&c) {
                            *sym = Sym::N(class_id);
                        }
                    }
                }
            }
        }
    }

    fn interchangeable_chars(&self, check: &dyn Fn(&str) -> bool, a: char, b: char) -> bool {
        // Swap a few occurrences of `a` with `b` (and vice versa) in the seeds.
        let mut tested = 0usize;
        for alt in &self.root_alts {
            let rendered = self.yield_of_seq(alt);
            let chars: Vec<char> = rendered.chars().collect();
            for (i, &c) in chars.iter().enumerate() {
                let replacement = if c == a {
                    b
                } else if c == b {
                    a
                } else {
                    continue;
                };
                let mut mutated = chars.clone();
                mutated[i] = replacement;
                if !check(&mutated.iter().collect::<String>()) {
                    return false;
                }
                tested += 1;
                if tested >= MERGE_CHECKS * 2 {
                    return true;
                }
            }
        }
        tested > 0
    }

    /// One round of bubbling + merging. Returns `false` when nothing changed.
    fn bubble_and_merge(&mut self, check: &dyn Fn(&str) -> bool) -> bool {
        // Candidate spans: contiguous symbol sequences of the root alternatives.
        let mut span_counts: BTreeMap<Vec<Sym>, usize> = BTreeMap::new();
        for alt in &self.root_alts {
            for len in 2..=MAX_BUBBLE_LEN.min(alt.len()) {
                for start in 0..=alt.len() - len {
                    *span_counts.entry(alt[start..start + len].to_vec()).or_default() += 1;
                }
            }
        }
        let mut spans: Vec<(Vec<Sym>, usize)> = span_counts.into_iter().collect();
        // Prefer frequent, long spans.
        spans.sort_by_key(|(span, count)| (usize::MAX - count, usize::MAX - span.len()));

        for (span, count) in spans.into_iter().take(24) {
            // Try to merge the span with an existing nonterminal (including the
            // class nonterminals); this is what creates recursion.
            let span_yield = self.yield_of_seq(&span);
            for class_id in 0..self.classes.len() {
                if self.span_matches_class(check, &span, class_id) {
                    self.classes[class_id].push(span.clone());
                    self.replace_span_everywhere(&span, Sym::N(class_id));
                    return true;
                }
            }
            // Otherwise bubble the span into a fresh nonterminal if it repeats.
            if count >= 2 && !span_yield.is_empty() {
                let id = self.classes.len();
                self.classes.push(vec![span.clone()]);
                self.replace_span_everywhere(&span, Sym::N(id));
                return true;
            }
        }
        false
    }

    /// Would replacing an occurrence of `class_id` with the span's yield (and an
    /// occurrence of the span with a class yield) keep the seeds valid?
    fn span_matches_class(
        &mut self,
        check: &dyn Fn(&str) -> bool,
        span: &[Sym],
        class_id: usize,
    ) -> bool {
        let span_yield = self.yield_of_seq(span);
        let class_yield = {
            let alts = &self.classes[class_id];
            let idx = self.rng.gen_range(0..alts.len());
            self.yield_of_seq(&alts[idx].clone())
        };
        if span_yield == class_yield {
            return false;
        }
        let mut checks = 0usize;
        let mut passed = 0usize;
        for alt in &self.root_alts {
            // Replace one occurrence of the span (as a symbol subsequence) with the
            // class yield, and one occurrence of the class symbol with the span
            // yield, and ask the oracle.
            if let Some(pos) = find_subsequence(alt, span) {
                let mut rendered = String::new();
                rendered.push_str(&self.yield_of_seq(&alt[..pos]));
                rendered.push_str(&class_yield);
                rendered.push_str(&self.yield_of_seq(&alt[pos + span.len()..]));
                checks += 1;
                if check(&rendered) {
                    passed += 1;
                }
            }
            if let Some(pos) = alt.iter().position(|&s| s == Sym::N(class_id)) {
                let mut rendered = String::new();
                rendered.push_str(&self.yield_of_seq(&alt[..pos]));
                rendered.push_str(&span_yield);
                rendered.push_str(&self.yield_of_seq(&alt[pos + 1..]));
                checks += 1;
                if check(&rendered) {
                    passed += 1;
                }
            }
            if checks >= MERGE_CHECKS {
                break;
            }
        }
        checks > 0 && passed == checks
    }

    fn replace_span_everywhere(&mut self, span: &[Sym], replacement: Sym) {
        let replace = |seq: &mut Vec<Sym>| {
            while let Some(pos) = find_subsequence(seq, span) {
                seq.splice(pos..pos + span.len(), [replacement]);
            }
        };
        for alt in &mut self.root_alts {
            replace(alt);
        }
        let n_classes = self.classes.len();
        for class in &mut self.classes {
            for alt in class.iter_mut() {
                // Avoid trivially self-recursive single-symbol alternatives.
                if (alt.len() == span.len() || n_classes == 0) && alt.as_slice() == span {
                    continue;
                }
                replace(alt);
            }
        }
    }

    fn into_cfg(self) -> Cfg {
        let mut cfg = Cfg::new();
        let root = cfg.add_nonterminal("Root");
        cfg.set_start(root);
        let class_ids: Vec<usize> =
            (0..self.classes.len()).map(|i| cfg.add_nonterminal(&format!("N{i}"))).collect();
        let to_ref = |s: &Sym| match s {
            Sym::T(c) => SymbolRef::Terminal(*c),
            Sym::N(i) => SymbolRef::Nonterminal(class_ids[*i]),
        };
        for alt in &self.root_alts {
            cfg.add_rule(root, alt.iter().map(to_ref).collect());
        }
        for (i, alts) in self.classes.iter().enumerate() {
            for alt in alts {
                cfg.add_rule(class_ids[i], alt.iter().map(to_ref).collect());
            }
        }
        cfg
    }
}

fn find_subsequence(haystack: &[Sym], needle: &[Sym]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (0..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

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
                'x' | 'y' => {}
                _ => return false,
            }
        }
        d == 0
    }

    #[test]
    fn seeds_are_always_accepted() {
        let seeds = vec!["(x)".to_string(), "((y)x)".to_string(), "x".to_string()];
        let arvada = Arvada::learn(&dyck, &seeds);
        for s in &seeds {
            assert!(arvada.accepts(s), "{s:?}");
        }
        assert!(arvada.queries_used() > 0);
        assert!(arvada.cfg().rule_count() >= seeds.len());
    }

    #[test]
    fn character_classes_generalise_terminals() {
        // x and y are interchangeable plain characters; Arvada should class them.
        let seeds = vec!["(x)".to_string(), "(y)".to_string()];
        let arvada = Arvada::learn(&dyck, &seeds);
        assert!(arvada.accepts("(x)"));
        assert!(arvada.accepts("(y)"));
    }

    #[test]
    fn samples_come_from_the_learned_grammar() {
        let seeds = vec!["(x)".to_string(), "((x)x)".to_string()];
        let arvada = Arvada::learn(&dyck, &seeds);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let s = arvada.sample(&mut rng, 20).unwrap();
            assert!(arvada.accepts(&s), "sample {s:?} rejected by its own grammar");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let seeds = vec!["(x)".to_string(), "x".to_string()];
        let a1 = Arvada::learn(&dyck, &seeds);
        let a2 = Arvada::learn(&dyck, &seeds);
        assert_eq!(a1.queries_used(), a2.queries_used());
        assert_eq!(a1.cfg().rule_count(), a2.cfg().rule_count());
    }
}
