//! Character-level tagging inference (paper §4.3, Algorithm 3).
//!
//! Given seed strings and the membership oracle, infer a tagging `T ⊆ Σ × Σ` of
//! call/return character pairs that is *compatible* with the seeds: every seed is
//! well matched under `T` and every nesting pattern of the seeds contains an
//! unmatched call of some pair in its `x` part and an unmatched paired return in its
//! `y` part (Definition 4.5). By Theorem 4.2, a compatible tagging turns the oracle
//! language into a VPL, which Algorithm 1 can then learn exactly.

use vstar_vpl::nested::{unmatched_call_positions, unmatched_return_positions};
use vstar_vpl::Tagging;

use crate::mat::Mat;
use crate::nesting::{candidate_nesting, NestingPattern};

/// Upper bound on the pumping bound `K` tried by [`tag_infer`]'s outer loop (the
/// paper starts at `K = 2` and increments; Theorem 4.3 guarantees a finite bound).
pub(crate) const TAG_INFER_MAX_K: usize = 3;

/// Is the tagging compatible with one nesting pattern (Definition 4.5)?
///
/// There must be a pair `(‹a, b›)` of the tagging such that `x` contains an `a`
/// that is unmatched *within* `x`, and `y` contains a `b` that is unmatched within
/// `y`.
#[must_use]
pub fn tagging_compatible_with_pattern(tagging: &Tagging, pattern: &NestingPattern) -> bool {
    let x = tagging.tag(&pattern.x());
    let y = tagging.tag(&pattern.y());
    tagging.pairs().iter().any(|&(call, ret)| {
        !unmatched_call_positions(&x, call).is_empty()
            && !unmatched_return_positions(&y, ret).is_empty()
    })
}

/// Is the tagging compatible with the seed strings and all their nesting patterns
/// (Definition 4.5, second part)?
#[must_use]
pub fn tagging_compatible(
    tagging: &Tagging,
    seeds: &[String],
    patterns: &[NestingPattern],
) -> bool {
    seeds.iter().all(|s| tagging.is_well_matched(s))
        && patterns.iter().all(|p| tagging_compatible_with_pattern(tagging, p))
}

/// Infers a tagging compatible with the seed strings (Algorithm 3).
///
/// Returns `None` if no compatible tagging exists for any `K ≤ TAG_INFER_MAX_K`.
/// An empty tagging (no call/return pairs at all) is returned when the seeds have
/// no nesting patterns, i.e. when the oracle language looks regular.
#[must_use]
pub fn tag_infer(mat: &Mat<'_>, seeds: &[String]) -> Option<Tagging> {
    for big_k in 2..=TAG_INFER_MAX_K {
        let patterns = candidate_nesting(mat, seeds, big_k);
        if let Some(t) = search(seeds, &patterns, &[], &Tagging::new()) {
            return Some(t);
        }
    }
    None
}

/// The backtracking `search` of Algorithm 3.
fn search(
    seeds: &[String],
    remaining: &[NestingPattern],
    done: &[NestingPattern],
    tagging: &Tagging,
) -> Option<Tagging> {
    let Some((pattern, rest)) = remaining.split_first() else {
        return Some(tagging.clone());
    };
    let mut done_plus: Vec<NestingPattern> = done.to_vec();
    done_plus.push(pattern.clone());

    if tagging_compatible_with_pattern(tagging, pattern) {
        return search(seeds, rest, &done_plus, tagging);
    }

    // Prioritise outermost characters: leftmost in x, rightmost in y (the paper's
    // running example pairs 'a' with 'b' from the pattern (ag, hb)).
    let x_chars: Vec<char> = pattern.x().chars().collect();
    let mut y_chars: Vec<char> = pattern.y().chars().collect();
    y_chars.reverse();
    for &call in &x_chars {
        for &ret in &y_chars {
            if call == ret {
                continue;
            }
            let mut extended = tagging.clone();
            if extended.add_pair(call, ret).is_err() {
                continue; // characters already used by the tagging
            }
            if seeds.iter().all(|s| extended.is_well_matched(s))
                && done_plus.iter().all(|p| tagging_compatible_with_pattern(&extended, p))
            {
                if let Some(result) = search(seeds, rest, &done_plus, &extended) {
                    return Some(result);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_oracle(s: &str) -> bool {
        fn l(s: &[u8], mut pos: usize) -> Option<usize> {
            loop {
                match s.get(pos) {
                    Some(b'a') => {
                        pos = a(s, pos + 1)?;
                        if s.get(pos) != Some(&b'b') {
                            return None;
                        }
                        pos += 1;
                    }
                    Some(b'c') => {
                        if s.get(pos + 1) != Some(&b'd') {
                            return None;
                        }
                        pos += 2;
                    }
                    _ => return Some(pos),
                }
            }
        }
        fn a(s: &[u8], pos: usize) -> Option<usize> {
            if s.get(pos) != Some(&b'g') {
                return None;
            }
            let pos = l(s, pos + 1)?;
            if s.get(pos) != Some(&b'h') {
                return None;
            }
            Some(pos + 1)
        }
        l(s.as_bytes(), 0) == Some(s.len())
    }

    fn dyck_oracle(s: &str) -> bool {
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

    #[test]
    fn compatibility_with_paper_example() {
        let pattern = NestingPattern::new("agcdcdhbcd", (0, 2), (6, 8));
        // {(a,b)} is compatible: 'a' unmatched in "ag", 'b' unmatched in "hb".
        let ab = Tagging::from_pairs([('a', 'b')]).unwrap();
        assert!(tagging_compatible_with_pattern(&ab, &pattern));
        // {(g,h)} is compatible too.
        let gh = Tagging::from_pairs([('g', 'h')]).unwrap();
        assert!(tagging_compatible_with_pattern(&gh, &pattern));
        // {(c,d)} is not: c does not occur in x at all.
        let cd = Tagging::from_pairs([('c', 'd')]).unwrap();
        assert!(!tagging_compatible_with_pattern(&cd, &pattern));
    }

    #[test]
    fn incompatible_crossed_tagging_rejected_by_well_matchedness() {
        // The paper notes {(a,h),(g,b)} is incompatible: the seed is not
        // well matched under it.
        let crossed = Tagging::from_pairs([('a', 'h'), ('g', 'b')]).unwrap();
        let seeds = vec!["agcdcdhbcd".to_string()];
        assert!(!tagging_compatible(&crossed, &seeds, &[]));
    }

    #[test]
    fn infers_tagging_for_fig1() {
        let oracle = fig1_oracle;
        let mat = Mat::new(&oracle);
        let seeds = vec!["agcdcdhbcd".to_string()];
        let tagging = tag_infer(&mat, &seeds).expect("tagging found");
        // The inferred tagging must be compatible; the paper's preferred answer is
        // {(a,b)} (outermost pair), but any compatible tagging is acceptable.
        let patterns = candidate_nesting(&mat, &seeds, 2);
        assert!(tagging_compatible(&tagging, &seeds, &patterns), "tagging {tagging} incompatible");
        assert!(!tagging.is_empty());
        // Outermost preference: the pair (a, b) is chosen for the outermost pattern.
        assert!(
            tagging.pairs().contains(&('a', 'b')) || tagging.pairs().contains(&('g', 'h')),
            "unexpected tagging {tagging}"
        );
    }

    #[test]
    fn infers_tagging_for_dyck() {
        let oracle = dyck_oracle;
        let mat = Mat::new(&oracle);
        let seeds = vec!["(x(x))x".to_string()];
        let tagging = tag_infer(&mat, &seeds).expect("tagging found");
        assert_eq!(tagging.pairs(), &[('(', ')')]);
    }

    #[test]
    fn regular_language_gets_empty_tagging() {
        // (ab)* has no nesting patterns (only regular pumping), so the inferred
        // tagging is empty and the language will be learned as a plain DFA.
        let oracle = |s: &str| {
            let chars: Vec<char> = s.chars().collect();
            chars.len() % 2 == 0 && chars.chunks(2).all(|c| c == ['a', 'b'])
        };
        let mat = Mat::new(&oracle);
        let seeds = vec!["abab".to_string()];
        let tagging = tag_infer(&mat, &seeds).expect("tagging found");
        assert!(tagging.is_empty());
    }

    #[test]
    fn two_pair_language() {
        // Language: a D b | c D d where D is Dyck-like over the same pairs with
        // plain 'x': i.e. both (a,b) and (c,d) are call/return pairs.
        fn oracle(s: &str) -> bool {
            fn expr(s: &[u8], pos: usize) -> Option<usize> {
                match s.get(pos) {
                    Some(b'x') => Some(pos + 1),
                    Some(b'a') => {
                        let p = expr(s, pos + 1)?;
                        (s.get(p) == Some(&b'b')).then_some(p + 1)
                    }
                    Some(b'c') => {
                        let p = expr(s, pos + 1)?;
                        (s.get(p) == Some(&b'd')).then_some(p + 1)
                    }
                    _ => None,
                }
            }
            expr(s.as_bytes(), 0) == Some(s.len())
        }
        let oracle_fn = oracle;
        let mat = Mat::new(&oracle_fn);
        let seeds = vec!["axb".to_string(), "cxd".to_string(), "acxdb".to_string()];
        let tagging = tag_infer(&mat, &seeds).expect("tagging found");
        assert_eq!(tagging.pair_count(), 2);
        assert!(tagging.pairs().contains(&('a', 'b')));
        assert!(tagging.pairs().contains(&('c', 'd')));
    }
}
