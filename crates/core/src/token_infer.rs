//! Token-level call/return inference (paper §5.2, Algorithm 4).
//!
//! For languages whose call/return structure lives in multi-character *tokens*
//! (`<p>` / `</p>` in XML) — or in characters that sometimes occur as plain text
//! (`{` inside a JSON string) — V-Star infers a [`PartialTokenizer`]: a set of
//! call/return token pairs, each given by a lexical rule. The procedure mirrors
//! Algorithm 3 but, instead of single characters, it enumerates candidate token
//! occurrences inside the `x`/`y` parts of nesting patterns (Lemma C.2 restricts
//! the real token to a substring of `x²`/`y²`) and generalises their lexical rules
//! with Angluin's L\* (paper Algorithm 4, line 6). Compatibility of a tokenizer
//! with a nesting pattern follows Definition 5.1: the converted `x` part must
//! contain an unmatched artificial call marker whose paired return marker is
//! unmatched in the converted `y` part.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mat::Mat;
use crate::nesting::{candidate_nesting, NestingPattern};
use crate::tokenizer::{PartialTokenizer, TokenMatcher, TokenPair};
use vstar_automata::lstar::{learn_dfa, LStarConfig};
use vstar_automata::Dfa;

/// Configuration for [`token_infer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenInferConfig {
    /// Upper bound on the pumping bound `K` of `candidateNesting`.
    pub max_k: usize,
    /// Whether multi-character token lexical rules are generalised with L\*
    /// (disabled, tokens stay literal strings).
    pub generalize: bool,
}

impl Default for TokenInferConfig {
    fn default() -> Self {
        TokenInferConfig { max_k: 3, generalize: true }
    }
}

/// Is the partial tokenizer compatible with one nesting pattern (Definition 5.1)?
///
/// The definition asks for an artificial call marker that is unmatched inside
/// `conv(x)` together with an unmatched paired return marker inside `conv(y)`.
/// Token occurrences may straddle the boundaries of the pattern's partition (the
/// paper's Lemma C.2 places the token inside `x²`/`y²`, not inside `x`/`y`), so the
/// check here works at the level of token *occurrences*: the tokenizer is
/// compatible when some matched call/return occurrence pair brackets the pattern —
/// the call occurrence overlaps `x` and its matching return closes at or after the
/// start of `y`, or symmetrically the return occurrence overlaps `y` and its
/// matching call opened at or before the end of `x`.
#[must_use]
pub fn tokenizer_compatible_with_pattern(
    tokenizer: &PartialTokenizer,
    mat: &Mat<'_>,
    pattern: &NestingPattern,
) -> bool {
    if tokenizer.is_empty() {
        return false;
    }
    let seed = pattern.seed();
    let matches = tokenizer.tokenize(mat, &seed);
    let (xs, xe) = pattern.x_range();
    let (ys, ye) = pattern.y_range();
    let overlaps =
        |m: &crate::tokenizer::TokenMatch, lo: usize, hi: usize| m.start < hi && m.end > lo;

    // Pair up call and return occurrences structurally (stack discipline).
    let mut stack: Vec<usize> = Vec::new();
    let mut partners: Vec<(usize, usize)> = Vec::new();
    let mut unmatched_calls: Vec<usize> = Vec::new();
    let mut unmatched_rets: Vec<usize> = Vec::new();
    for (idx, m) in matches.iter().enumerate() {
        match m.kind {
            crate::tokenizer::TokenKind::Call => stack.push(idx),
            crate::tokenizer::TokenKind::Return => match stack.pop() {
                Some(call_idx) => partners.push((call_idx, idx)),
                None => unmatched_rets.push(idx),
            },
        }
    }
    unmatched_calls.extend(stack);

    // Criterion 1 (bracketing pair): a matched call/return occurrence pair of the
    // same token pair brackets the pattern — the call overlaps x and its return
    // closes at or after the start of y, or symmetrically.
    let bracketing_pair = partners.iter().any(|&(ci, ri)| {
        let (c, r) = (&matches[ci], &matches[ri]);
        c.pair == r.pair
            && ((overlaps(c, xs, xe) && r.start >= ys) || (overlaps(r, ys, ye) && c.end <= xe))
    });

    // Criterion 2 (region-unmatched, the letter of Definitions 4.5/5.1): some
    // pair-i call occurrence overlapping x is not closed inside x, and some pair-i
    // return occurrence overlapping y is not opened inside y.
    let partner_of = |idx: usize| -> Option<usize> {
        partners.iter().find_map(|&(c, r)| {
            if c == idx {
                Some(r)
            } else if r == idx {
                Some(c)
            } else {
                None
            }
        })
    };
    let region_unmatched = (0..tokenizer.pair_count()).any(|pair| {
        let call_witness = matches.iter().enumerate().any(|(idx, m)| {
            m.pair == pair
                && m.kind == crate::tokenizer::TokenKind::Call
                && overlaps(m, xs, xe)
                && partner_of(idx).is_none_or(|p| !overlaps(&matches[p], xs, xe))
        });
        let ret_witness = matches.iter().enumerate().any(|(idx, m)| {
            m.pair == pair
                && m.kind == crate::tokenizer::TokenKind::Return
                && overlaps(m, ys, ye)
                && partner_of(idx).is_none_or(|p| !overlaps(&matches[p], ys, ye))
        });
        call_witness && ret_witness
    });

    // Occurrences left entirely unmatched are covered by criterion 2 (their partner
    // is `None`).
    let _ = (&unmatched_calls, &unmatched_rets);
    bracketing_pair || region_unmatched
}

/// Is the tokenizer compatible with the seeds (all conversions well matched) and
/// with every pattern in `patterns`?
#[must_use]
pub fn tokenizer_compatible(
    tokenizer: &PartialTokenizer,
    mat: &Mat<'_>,
    seeds: &[String],
    patterns: &[NestingPattern],
) -> bool {
    seeds.iter().all(|s| tokenizer.converts_to_well_matched(mat, s))
        && patterns.iter().all(|p| tokenizer_compatible_with_pattern(tokenizer, mat, p))
}

/// Infers a partial tokenizer compatible with the seed strings (Algorithm 4).
///
/// `alphabet` is the oracle's character alphabet Σ, used by the L\* generalisation
/// of token lexical rules. Returns `None` when no compatible tokenizer is found for
/// any `K ≤ config.max_k`. An empty tokenizer is returned for seeds without nesting
/// patterns (regular-looking languages).
#[must_use]
pub fn token_infer(
    mat: &Mat<'_>,
    seeds: &[String],
    alphabet: &[char],
    config: &TokenInferConfig,
) -> Option<PartialTokenizer> {
    for big_k in 2..=config.max_k.max(2) {
        let patterns = candidate_nesting(mat, seeds, big_k);
        let empty = PartialTokenizer::new();
        if let Some(d) = token_search(mat, seeds, alphabet, &patterns, &[], &empty, config) {
            return Some(d);
        }
    }
    None
}

/// The backtracking `tokenSearch` of Algorithm 4.
fn token_search(
    mat: &Mat<'_>,
    seeds: &[String],
    alphabet: &[char],
    remaining: &[NestingPattern],
    done: &[NestingPattern],
    tokenizer: &PartialTokenizer,
    config: &TokenInferConfig,
) -> Option<PartialTokenizer> {
    let Some((pattern, rest)) = remaining.split_first() else {
        return Some(tokenizer.clone());
    };
    let mut done_plus: Vec<NestingPattern> = done.to_vec();
    done_plus.push(pattern.clone());

    if tokenizer_compatible_with_pattern(tokenizer, mat, pattern) {
        return token_search(mat, seeds, alphabet, rest, &done_plus, tokenizer, config);
    }

    for (call_occ, ret_occ) in candidate_occurrences(pattern) {
        let seed = pattern.seed();
        let call_lit = slice(&seed, call_occ);
        let ret_lit = slice(&seed, ret_occ);
        if call_lit == ret_lit {
            continue;
        }
        // A real token occurrence must not be k-repeatable at its position.
        let k = tokenizer.k_repetition();
        if is_repeatable(mat, &seed, call_occ, k) || is_repeatable(mat, &seed, ret_occ, k) {
            continue;
        }
        // Cheap screening with literal matchers before investing in L*
        // generalisation: the literal pair must already be compatible with the
        // current pattern. Single-character candidates are never generalised, so
        // for them the full (all-seeds) check is also performed on the literal
        // pair; multi-character candidates may legitimately need generalisation to
        // cover other seeds (e.g. an XML open tag with attributes), so their
        // all-seeds check is deferred until after L*.
        let single_char = call_occ.1 - call_occ.0 == 1 && ret_occ.1 - ret_occ.0 == 1;
        let mut literal = tokenizer.clone();
        literal.push_pair(TokenPair {
            call: TokenMatcher::Literal(call_lit.clone()),
            ret: TokenMatcher::Literal(ret_lit.clone()),
        });
        if !tokenizer_compatible_with_pattern(&literal, mat, pattern) {
            continue;
        }
        if single_char && !seeds.iter().all(|s| literal.converts_to_well_matched(mat, s)) {
            continue;
        }
        let call_matcher = build_matcher(mat, seeds, &seed, call_occ, alphabet, config);
        let ret_matcher = build_matcher(mat, seeds, &seed, ret_occ, alphabet, config);
        let mut extended = tokenizer.clone();
        extended.push_pair(TokenPair { call: call_matcher, ret: ret_matcher });
        let generalised = matches!(
            extended.pairs().last(),
            Some(TokenPair { call: TokenMatcher::Dfa(_), .. })
                | Some(TokenPair { ret: TokenMatcher::Dfa(_), .. })
        );
        // Try the generalised pair first, falling back to the literal pair.
        let candidates: Vec<PartialTokenizer> =
            if generalised { vec![extended, literal] } else { vec![extended] };
        for candidate in candidates {
            if tokenizer_compatible(&candidate, mat, seeds, &done_plus) {
                if let Some(result) =
                    token_search(mat, seeds, alphabet, rest, &done_plus, &candidate, config)
                {
                    return Some(result);
                }
            }
        }
    }
    if std::env::var_os("VSTAR_DEBUG_TOKENS").is_some() {
        eprintln!(
            "[token_infer] no viable token pair for pattern {pattern} (current tokenizer has {} pair(s))",
            tokenizer.pair_count()
        );
    }
    None
}

/// Maximum length of a candidate token occurrence considered inside `x`/`y`.
const MAX_TOKEN_LEN: usize = 12;

/// Candidate (call occurrence, return occurrence) ranges inside the `x`/`y` parts of
/// a pattern, outermost/longest-first. Ranges are character ranges into the seed.
fn candidate_occurrences(pattern: &NestingPattern) -> Vec<((usize, usize), (usize, usize))> {
    let (xs, xe) = pattern.x_range();
    let (ys, ye) = pattern.y_range();
    let subranges = |lo: usize, hi: usize| -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for start in lo..hi {
            for end in (start + 1..=hi).rev() {
                if end - start <= MAX_TOKEN_LEN {
                    out.push((start, end));
                }
            }
        }
        // Shortest first, then leftmost. Short candidates are tried first because a
        // call token that drags surrounding context along (e.g. `{"a":` instead of
        // `{`) over-commits the tokenizer; the Definition-5.1 compatibility check
        // rejects candidates that are too short (such as `<` alone for XML, whose
        // conversion is already matched inside `x`), so the search settles on the
        // shortest candidate that genuinely carries the nesting structure.
        out.sort_by_key(|&(s, e)| (e - s, s));
        out
    };
    let mut pairs = Vec::new();
    for call in subranges(xs, xe) {
        for ret in subranges(ys, ye) {
            pairs.push((call, ret));
        }
    }
    pairs
}

fn slice(seed: &str, range: (usize, usize)) -> String {
    seed.chars().skip(range.0).take(range.1 - range.0).collect()
}

fn is_repeatable(mat: &Mat<'_>, seed: &str, range: (usize, usize), k: usize) -> bool {
    let chars: Vec<char> = seed.chars().collect();
    let prefix: String = chars[..range.0].iter().collect();
    let body: String = chars[range.0..range.1].iter().collect();
    let suffix: String = chars[range.1..].iter().collect();
    mat.member(&format!("{prefix}{}{suffix}", body.repeat(k)))
}

/// Builds the matcher for one token occurrence: a literal for single characters, an
/// L\*-learned DFA otherwise (when generalisation is enabled).
fn build_matcher(
    mat: &Mat<'_>,
    seeds: &[String],
    seed: &str,
    occ: (usize, usize),
    alphabet: &[char],
    config: &TokenInferConfig,
) -> TokenMatcher {
    let lit = slice(seed, occ);
    if !config.generalize || lit.chars().count() <= 1 {
        return TokenMatcher::Literal(lit);
    }
    match learn_token_dfa(mat, seeds, seed, occ, alphabet) {
        Some(dfa) if dfa.accepts(&lit) => TokenMatcher::Dfa(dfa),
        _ => TokenMatcher::Literal(lit),
    }
}

/// Rounds of overgeneralisation refinement applied after each L\* run.
const REFINEMENT_ROUNDS: usize = 4;

/// Number of hypothesis samples drawn per refinement round.
const REFINEMENT_SAMPLES: usize = 60;

/// RNG seed for hypothesis sampling.
const REFINEMENT_RNG_SEED: u64 = 0x70ce;

/// Learns the lexical rule of a token with L\* (paper Algorithm 4, line 6).
///
/// Membership of a candidate token string `w` requires (per the paper's Token Fixed
/// Prefix and Suffix and Exclusivity assumptions):
/// * `w` starts with the occurrence's first character and ends with its last,
/// * neither of those boundary characters occurs in the interior of `w`,
/// * the seed string remains valid when the occurrence is replaced by `w`.
///
/// Equivalence queries are simulated with test strings derived from the occurrence
/// (substitutions, insertions, deletions and prefix/suffix combinations), followed
/// by refinement rounds that sample members of the hypothesis DFA and check them
/// against the oracle, catching overgeneralisation.
fn learn_token_dfa(
    mat: &Mat<'_>,
    seeds: &[String],
    seed: &str,
    occ: (usize, usize),
    alphabet: &[char],
) -> Option<Dfa> {
    let chars: Vec<char> = seed.chars().collect();
    let occurrence: Vec<char> = chars[occ.0..occ.1].to_vec();
    let prefix_ctx: String = chars[..occ.0].iter().collect();
    let suffix_ctx: String = chars[occ.1..].iter().collect();
    let first = *occurrence.first()?;
    let last = *occurrence.last()?;

    let max_len = occurrence.len() + 8;
    let membership = move |w: &str| -> bool {
        let wc: Vec<char> = w.chars().collect();
        if wc.is_empty() || wc.len() > max_len {
            return false;
        }
        if wc[0] != first || *wc.last().expect("nonempty") != last {
            return false;
        }
        if wc.len() > 1 {
            let interior = &wc[1..wc.len() - 1];
            if interior.contains(&first) || interior.contains(&last) {
                return false;
            }
        }
        mat.member(&format!("{prefix_ctx}{w}{suffix_ctx}"))
    };

    // Initial test pool: the occurrence, boundary-framed substrings, single-symbol
    // substitutions, insertions and deletions.
    let occ_str: String = occurrence.iter().collect();
    let mut tests: Vec<String> = vec![occ_str.clone(), String::new(), first.to_string()];
    for i in 0..occurrence.len() {
        for &a in alphabet {
            // substitution
            let mut sub = occurrence.clone();
            sub[i] = a;
            tests.push(sub.iter().collect());
            // insertion
            let mut ins = occurrence.clone();
            ins.insert(i, a);
            tests.push(ins.iter().collect());
        }
        // deletion
        let mut del = occurrence.clone();
        del.remove(i);
        tests.push(del.iter().collect());
        // prefix/suffix combinations q..i + j..g
        for j in i..occurrence.len() {
            let combined: String = occurrence[..i].iter().chain(occurrence[j..].iter()).collect();
            tests.push(combined);
        }
    }
    // Substrings of *all* seed strings framed by the token's first/last character
    // (the paper simulates token-level equivalence with strings combined from the
    // seeds): these expose token variants that the current seed alone does not,
    // e.g. an XML open tag that carries an attribute.
    for other in seeds {
        let oc: Vec<char> = other.chars().collect();
        for start in 0..oc.len() {
            if oc[start] != first {
                continue;
            }
            for end in start + 1..=oc.len().min(start + max_len) {
                if oc[end - 1] == last {
                    tests.push(oc[start..end].iter().collect());
                }
            }
        }
    }
    tests.sort();
    tests.dedup();

    let mut rng = StdRng::seed_from_u64(REFINEMENT_RNG_SEED);
    let mut dfa = learn_dfa(alphabet, &membership, &LStarConfig::with_test_strings(tests.clone()));
    for _ in 0..REFINEMENT_ROUNDS {
        let mut new_counterexamples = Vec::new();
        for sample in sample_dfa_members(&dfa, &mut rng, REFINEMENT_SAMPLES, max_len) {
            if !membership(&sample) {
                new_counterexamples.push(sample);
            }
        }
        if new_counterexamples.is_empty() {
            break;
        }
        tests.extend(new_counterexamples);
        tests.sort();
        tests.dedup();
        dfa = learn_dfa(alphabet, &membership, &LStarConfig::with_test_strings(tests.clone()));
    }
    Some(dfa)
}

/// Randomly samples accepted strings of a DFA by biased random walks.
fn sample_dfa_members(dfa: &Dfa, rng: &mut StdRng, count: usize, max_len: usize) -> Vec<String> {
    let alphabet: Vec<char> = dfa.alphabet().to_vec();
    let mut out = Vec::new();
    for _ in 0..count {
        let mut state = dfa.initial();
        let mut word = String::new();
        for _ in 0..max_len {
            if dfa.accepting().contains(&state) && rng.gen_bool(0.3) {
                break;
            }
            let choices: Vec<(char, usize)> =
                alphabet.iter().filter_map(|&c| dfa.delta(state, c).map(|t| (c, t))).collect();
            if choices.is_empty() {
                break;
            }
            let &(c, t) = &choices[rng.gen_range(0..choices.len())];
            word.push(c);
            state = t;
        }
        if dfa.accepting().contains(&state) {
            out.push(word);
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::TokenKind;

    fn toy_xml(s: &str) -> bool {
        fn parse(s: &[u8], pos: usize) -> Option<usize> {
            if s[pos..].starts_with(b"<p>") {
                let inner = parse(s, pos + 3)?;
                s[inner..].starts_with(b"</p>").then_some(inner + 4)
            } else {
                let mut i = pos;
                while i < s.len() && s[i].is_ascii_lowercase() {
                    i += 1;
                }
                (i > pos).then_some(i)
            }
        }
        s.is_ascii() && parse(s.as_bytes(), 0) == Some(s.len())
    }

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

    fn small_alphabet() -> Vec<char> {
        let mut a = vec!['<', '>', '/'];
        a.extend('a'..='r');
        a
    }

    #[test]
    fn single_char_tokens_for_dyck() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let seeds = vec!["(x)".to_string()];
        let tokenizer =
            token_infer(&mat, &seeds, &['(', ')', 'x'], &TokenInferConfig::default()).unwrap();
        assert_eq!(tokenizer.pair_count(), 1);
        let matches = tokenizer.tokenize(&mat, "((x)x)");
        assert_eq!(matches.len(), 4);
        assert!(tokenizer.converts_to_well_matched(&mat, "((x)x)"));
    }

    #[test]
    fn toy_xml_tokens_are_inferred_from_figure2_seed() {
        let oracle = toy_xml;
        let mat = Mat::new(&oracle);
        let seeds = vec!["<p><p>p</p></p>".to_string()];
        let config = TokenInferConfig { generalize: false, ..TokenInferConfig::default() };
        let tokenizer = token_infer(&mat, &seeds, &small_alphabet(), &config).unwrap();
        assert_eq!(tokenizer.pair_count(), 1);
        // The inferred pair must tokenize the seed into the 4 tags of the paper's
        // walkthrough (OPEN OPEN … CLOSE CLOSE).
        let matches = tokenizer.tokenize(&mat, "<p><p>p</p></p>");
        assert_eq!(matches.len(), 4, "{tokenizer}");
        assert_eq!(matches[0].kind, TokenKind::Call);
        assert_eq!(matches[3].kind, TokenKind::Return);
        assert!(tokenizer.converts_to_well_matched(&mat, "<p>x</p>"));
    }

    #[test]
    fn compatibility_definition_on_toy_xml() {
        let oracle = toy_xml;
        let mat = Mat::new(&oracle);
        let seed = "<p><p>p</p></p>";
        // Outermost pattern: x = "<p>", y = "</p>" (first open / last close).
        let pattern = NestingPattern::new(seed, (0, 3), (11, 15));
        let mut good = PartialTokenizer::new();
        good.push_pair(TokenPair {
            call: TokenMatcher::Literal("<p>".to_string()),
            ret: TokenMatcher::Literal("</p>".to_string()),
        });
        assert!(tokenizer_compatible_with_pattern(&good, &mat, &pattern));
        // An empty tokenizer is incompatible with any pattern.
        assert!(!tokenizer_compatible_with_pattern(&PartialTokenizer::new(), &mat, &pattern));
        assert!(tokenizer_compatible(&good, &mat, &[seed.to_string()], &[pattern]));
    }

    #[test]
    fn regular_language_yields_empty_tokenizer() {
        let oracle = |s: &str| s.chars().all(|c| c == 'a');
        let mat = Mat::new(&oracle);
        let seeds = vec!["aaa".to_string()];
        let tokenizer = token_infer(&mat, &seeds, &['a'], &TokenInferConfig::default()).unwrap();
        assert!(tokenizer.is_empty());
    }

    #[test]
    fn generalized_xml_open_tag_learned_with_lstar() {
        // Simplified XML where tags are <name> ... </name> over letters a..e and
        // close names need not match open names; text is letters.
        fn xml(s: &str) -> bool {
            fn name(s: &[u8], pos: usize) -> Option<usize> {
                let mut i = pos;
                while i < s.len() && (b'a'..=b'e').contains(&s[i]) {
                    i += 1;
                }
                (i > pos).then_some(i)
            }
            fn element(s: &[u8], pos: usize) -> Option<usize> {
                if s.get(pos) != Some(&b'<') {
                    return None;
                }
                let p = name(s, pos + 1)?;
                if s.get(p) != Some(&b'>') {
                    return None;
                }
                let mut p = p + 1;
                loop {
                    match s.get(p) {
                        Some(b'<') if s.get(p + 1) == Some(&b'/') => {
                            let q = name(s, p + 2)?;
                            return (s.get(q) == Some(&b'>')).then_some(q + 1);
                        }
                        Some(b'<') => p = element(s, p)?,
                        Some(c) if (b'a'..=b'e').contains(c) => p += 1,
                        _ => return None,
                    }
                }
            }
            s.is_ascii() && element(s.as_bytes(), 0) == Some(s.len())
        }
        let oracle = xml;
        let mat = Mat::new(&oracle);
        let seed = "<a><b>c</b></a>";
        assert!(xml(seed));
        let alphabet: Vec<char> = vec!['<', '>', '/', 'a', 'b', 'c', 'd', 'e'];
        // Learn the lexical rule of the open tag directly.
        let seeds = vec![seed.to_string()];
        let dfa = learn_token_dfa(&mat, &seeds, seed, (0, 3), &alphabet).unwrap();
        assert!(dfa.accepts("<a>"));
        assert!(dfa.accepts("<d>"));
        assert!(dfa.accepts("<ab>"));
        assert!(!dfa.accepts("<>"));
        assert!(!dfa.accepts("</a>"));
        assert!(!dfa.accepts("<a"));
        // And the close tag.
        let dfa_close = learn_token_dfa(&mat, &seeds, seed, (11, 15), &alphabet).unwrap();
        assert!(dfa_close.accepts("</a>"));
        assert!(dfa_close.accepts("</db>"));
        assert!(!dfa_close.accepts("<a>"));
    }

    #[test]
    fn candidate_occurrences_prefer_shortest() {
        let pattern = NestingPattern::new("<p>x</p>", (0, 3), (4, 8));
        let cands = candidate_occurrences(&pattern);
        // Shortest candidates first (single characters), whole-x/whole-y last.
        assert_eq!(cands[0].0 .1 - cands[0].0 .0, 1);
        assert_eq!(cands[0].1 .1 - cands[0].1 .0, 1);
        let last = cands.last().unwrap();
        assert_eq!(last.0, (0, 3));
        assert_eq!(last.1, (4, 8));
        assert!(cands.len() > 1);
    }

    #[test]
    fn repeatable_occurrences_are_rejected() {
        // In a JSON-ish string, a brace inside a string literal is repeatable and
        // must not be chosen as a token occurrence.
        let oracle = |s: &str| {
            // language: '"' [a-z{]* '"'
            let b = s.as_bytes();
            s.is_ascii()
                && b.len() >= 2
                && b[0] == b'"'
                && b[b.len() - 1] == b'"'
                && b[1..b.len() - 1].iter().all(|&c| c.is_ascii_lowercase() || c == b'{')
        };
        let mat = Mat::new(&oracle);
        assert!(is_repeatable(&mat, "\"a{b\"", (2, 3), 2));
        assert!(!is_repeatable(&mat, "\"a{b\"", (0, 1), 2));
    }
}
