//! Corpus-only call/return structure inference.
//!
//! Active V-Star discovers nesting structure by *pumping* candidate splits
//! against the oracle (paper §4). With nothing but a positive corpus there is
//! no oracle to pump against, so this module falls back to distributional
//! evidence: a character pair `(a, b)` is treated as a call/return pair when,
//! across the corpus, occurrences of `a` and `b` balance like brackets —
//! every prefix of (almost) every word that mentions them has at least as
//! many `a`s as `b`s, the word ends balanced, and at least one word nests
//! them at depth ≥ 2 (depth-1 "pairs" are indistinguishable from alternating
//! plain tokens, e.g. `:` and `,` in JSON).
//!
//! The tolerance `MIN_FRACTION` exists because real corpora are noisy in
//! exactly the way the paper's tokenizer section predicts: a JSON corpus
//! contains `"}"` *inside string literals*, so `('{', '}')` does not balance
//! in every member. Words that fail the balance scan are handled later by the
//! converter, which demotes LIFO-unmatched occurrences to plain characters
//! (see [`crate::convert`]).
//!
//! Multi-character delimiters (XML's `<a>`/`</a>`, `while`/`done`) are out of
//! reach of character-level pairing by construction; on such corpora this
//! returns no pairs and the passive learner degenerates to a finite-state
//! approximation. That gap is what the *hybrid* path ([`crate::hybrid`]) is
//! for.

use std::collections::{BTreeMap, BTreeSet};

/// Fraction of pair-relevant corpus words that must pass the balance scan for
/// the pair to qualify (`0.9` tolerates string-literal noise).
const MIN_FRACTION: f64 = 0.9;

/// Minimum number of corpus words that nest the pair at depth ≥ 2.
const MIN_DEPTH_EVIDENCE: usize = 1;

/// Maximum number of pairs [`infer_char_pairs`] selects.
const MAX_PAIRS: usize = 4;

/// Per-candidate balance evidence, used for deterministic ranking.
#[derive(Clone, Copy, Debug, Default)]
struct PairEvidence {
    /// Words containing the call or the return character.
    relevant: usize,
    /// Relevant words whose balance scan succeeds (prefixes ≥ 0, ends at 0,
    /// at least one occurrence).
    consistent: usize,
    /// Consistent words reaching nesting depth ≥ 2.
    deep: usize,
    /// Words bracketed by the pair outright (first char the call, last char
    /// the return). True delimiters enclose whole inputs; alternating tokens
    /// that happen to balance (`:` against `}` in a small JSON corpus) never
    /// do, so this breaks ranking ties in favour of real brackets.
    outermost: usize,
}

/// Scans one word for the candidate pair; returns `(consistent, deep)`.
fn scan_word(word: &str, call: char, ret: char) -> (bool, bool) {
    let mut balance: i64 = 0;
    let mut max_depth: i64 = 0;
    let mut occurrences = 0usize;
    for c in word.chars() {
        if c == call {
            balance += 1;
            occurrences += 1;
            max_depth = max_depth.max(balance);
        } else if c == ret {
            balance -= 1;
            occurrences += 1;
            if balance < 0 {
                return (false, false);
            }
        }
    }
    let consistent = balance == 0 && occurrences > 0;
    (consistent, consistent && max_depth >= 2)
}

/// Infers bracket-like character pairs from a positive corpus alone.
///
/// Returns pairs ordered by evidence strength (most deeply nested first),
/// with pairwise-disjoint character sets; the order is deterministic for a
/// given corpus. An empty result means the corpus exhibits no character-level
/// nesting — the passive learner then treats every character as plain.
#[must_use]
pub fn infer_char_pairs(corpus: &[String]) -> Vec<(char, char)> {
    let mut alphabet: BTreeSet<char> = BTreeSet::new();
    for word in corpus {
        alphabet.extend(word.chars());
    }

    let mut scored: BTreeMap<(char, char), PairEvidence> = BTreeMap::new();
    for &call in &alphabet {
        for &ret in &alphabet {
            if call == ret {
                continue;
            }
            let mut ev = PairEvidence::default();
            for word in corpus {
                if !word.contains(call) && !word.contains(ret) {
                    continue;
                }
                ev.relevant += 1;
                let (consistent, deep) = scan_word(word, call, ret);
                if consistent {
                    ev.consistent += 1;
                }
                if deep {
                    ev.deep += 1;
                }
                if consistent
                    && word.starts_with(call)
                    && word.ends_with(ret)
                    && word.chars().count() >= 2
                {
                    ev.outermost += 1;
                }
            }
            let enough = ev.relevant > 0
                && ev.deep >= MIN_DEPTH_EVIDENCE
                && (ev.consistent as f64) >= MIN_FRACTION * (ev.relevant as f64);
            if enough {
                scored.insert((call, ret), ev);
            }
        }
    }

    // Strongest evidence first; ties broken by the pair itself so the result
    // is a pure function of the corpus.
    let mut ranked: Vec<((char, char), PairEvidence)> = scored.into_iter().collect();
    ranked.sort_by(|(pa, ea), (pb, eb)| {
        eb.outermost
            .cmp(&ea.outermost)
            .then(eb.deep.cmp(&ea.deep))
            .then(eb.consistent.cmp(&ea.consistent))
            .then(pa.cmp(pb))
    });

    let mut used: BTreeSet<char> = BTreeSet::new();
    let mut pairs = Vec::new();
    for ((call, ret), _) in ranked {
        if pairs.len() >= MAX_PAIRS {
            break;
        }
        if used.contains(&call) || used.contains(&ret) {
            continue;
        }
        used.insert(call);
        used.insert(ret);
        pairs.push((call, ret));
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn finds_nested_parentheses() {
        let c = corpus(&["(x)", "((x)x)", "(()())", "x", "((x))"]);
        let pairs = infer_char_pairs(&c);
        assert_eq!(pairs, vec![('(', ')')]);
    }

    #[test]
    fn rejects_alternating_tokens_without_nesting() {
        // ':' and ',' alternate (balance-consistent at depth 1) but never nest.
        let c = corpus(&[":,", ":,:,", ":,:,:,"]);
        let pairs = infer_char_pairs(&c);
        assert!(pairs.is_empty(), "{pairs:?}");
    }

    #[test]
    fn tolerates_string_literal_noise() {
        // One word breaks the balance ('}' inside a "string"); nine don't.
        let mut words = vec!["{\"a\":{\"b\":1}}".to_owned(); 9];
        words.push("{\"}\":1}".to_owned());
        let pairs = infer_char_pairs(&words);
        assert_eq!(pairs, vec![('{', '}')]);
    }

    #[test]
    fn selected_pairs_have_disjoint_characters() {
        let c = corpus(&["{[{[]}]}", "[]", "{}", "[[{}]]"]);
        let pairs = infer_char_pairs(&c);
        assert!(pairs.len() >= 2, "{pairs:?}");
        let mut seen = BTreeSet::new();
        for (a, b) in &pairs {
            assert!(seen.insert(*a), "reused call {a:?}");
            assert!(seen.insert(*b), "reused return {b:?}");
        }
        assert!(pairs.contains(&('{', '}')));
        assert!(pairs.contains(&('[', ']')));
    }

    #[test]
    fn empty_corpus_yields_no_pairs() {
        assert!(infer_char_pairs(&[]).is_empty());
    }
}
