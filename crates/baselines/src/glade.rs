//! A GLADE-style baseline (Bastani et al. 2017).
//!
//! GLADE's first phase generalises each seed string into a regular expression by
//! proposing *generalisation steps* — replacing a substring with a character class
//! or a repetition — and keeping a step only if membership queries confirm it. Its
//! second phase merges the per-seed expressions. This module implements that
//! regular-expression phase (character-class generalisation, repetition detection,
//! and union across seeds). Because the result is regular, recall on recursive
//! (visibly pushdown) languages is structurally limited, which reproduces the shape
//! of GLADE's row in the paper's Table 1: high precision, low recall, few queries.

use std::cell::Cell;

use rand::Rng;

use vstar_automata::nfa::CharClass;
use vstar_automata::regex::{Ast, Regex};

use crate::LearnedGrammar;

/// Maximum repetition-block length considered.
const MAX_REPEAT_BLOCK: usize = 4;

/// The learned GLADE-style grammar: a union of per-seed regular expressions.
#[derive(Clone, Debug)]
pub struct Glade {
    regexes: Vec<Regex>,
    queries: usize,
}

impl Glade {
    /// Learns a union-of-regexes grammar from the seeds and a membership oracle.
    pub fn learn(oracle: &dyn Fn(&str) -> bool, seeds: &[String]) -> Self {
        let queries = Cell::new(0usize);
        let check = |s: &str| {
            queries.set(queries.get() + 1);
            oracle(s)
        };
        let mut regexes = Vec::new();
        for seed in seeds {
            let ast = generalize_seed(&check, seed);
            regexes.push(Regex::from_ast(ast));
        }
        Glade { regexes, queries: queries.get() }
    }

    /// The per-seed regular expressions.
    #[must_use]
    pub fn regexes(&self) -> &[Regex] {
        &self.regexes
    }
}

impl LearnedGrammar for Glade {
    fn accepts(&self, input: &str) -> bool {
        self.regexes.iter().any(|r| r.is_match(input))
    }

    fn sample(&self, rng: &mut dyn rand::RngCore, budget: usize) -> Option<String> {
        if self.regexes.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.regexes.len());
        Some(sample_ast(self.regexes[idx].ast(), rng, budget))
    }

    fn queries_used(&self) -> usize {
        self.queries
    }
}

/// One atom of the intermediate generalisation: either still a literal run or an
/// already-generalised sub-expression.
#[derive(Clone, Debug)]
enum Piece {
    Literal(String),
    General(Ast),
}

fn pieces_to_ast(pieces: &[Piece]) -> Ast {
    let parts: Vec<Ast> = pieces
        .iter()
        .map(|p| match p {
            Piece::Literal(s) => Ast::literal(s),
            Piece::General(a) => a.clone(),
        })
        .collect();
    match parts.len() {
        0 => Ast::Empty,
        1 => parts.into_iter().next().expect("one"),
        _ => Ast::Concat(parts),
    }
}

fn render_with_replacement(
    seed_chars: &[char],
    range: (usize, usize),
    replacement: &str,
) -> String {
    let mut out: String = seed_chars[..range.0].iter().collect();
    out.push_str(replacement);
    out.extend(seed_chars[range.1..].iter());
    out
}

/// Generalises one seed into a regex AST: character classes for digit/letter runs
/// first (checked in the original seed context), then repetition blocks inside the
/// remaining literal pieces.
fn generalize_seed(check: &dyn Fn(&str) -> bool, seed: &str) -> Ast {
    let chars: Vec<char> = seed.chars().collect();
    let n = chars.len();

    // Phase 1: character-class generalisation of maximal digit/letter runs.
    // Each piece remembers the character range it came from so later checks can be
    // phrased in the original seed context.
    let mut pieces: Vec<(Piece, (usize, usize))> = Vec::new();
    let mut i = 0usize;
    while i < n {
        let c = chars[i];
        let class: Option<(CharClass, Vec<&str>)> = if c.is_ascii_digit() {
            Some((
                CharClass { any: false, negated: false, ranges: vec![('0', '9')] },
                vec!["0", "7", "42", "908"],
            ))
        } else if c.is_ascii_lowercase() {
            Some((
                CharClass { any: false, negated: false, ranges: vec![('a', 'z')] },
                vec!["a", "zz", "qrs", "b"],
            ))
        } else {
            None
        };
        if let Some((class, samples)) = class {
            let mut j = i;
            while j < n && class.matches(chars[j]) {
                j += 1;
            }
            let ok = samples.iter().all(|rep| check(&render_with_replacement(&chars, (i, j), rep)));
            if ok {
                pieces.push((Piece::General(Ast::Plus(Box::new(Ast::Class(class)))), (i, j)));
            } else {
                pieces.push((Piece::Literal(chars[i..j].iter().collect()), (i, j)));
            }
            i = j;
        } else {
            pieces.push((Piece::Literal(c.to_string()), (i, i + 1)));
            i += 1;
        }
    }

    // Phase 2: repetition detection inside the remaining literal pieces. A block w
    // at an original position is wrapped in (w)+ when repeating it 2 and 3 times in
    // the original context keeps the string valid.
    let mut out: Vec<Piece> = Vec::new();
    for (piece, (start, end)) in pieces {
        match piece {
            Piece::General(a) => out.push(Piece::General(a)),
            Piece::Literal(text) => {
                let piece_chars: Vec<char> = text.chars().collect();
                let mut k = 0usize;
                while k < piece_chars.len() {
                    let mut matched = None;
                    for len in 1..=MAX_REPEAT_BLOCK.min(piece_chars.len() - k) {
                        let block: String = piece_chars[k..k + len].iter().collect();
                        let abs = (start + k, start + k + len);
                        debug_assert!(abs.1 <= end);
                        let ok = [2usize, 3].iter().all(|&reps| {
                            check(&render_with_replacement(&chars, abs, &block.repeat(reps)))
                        });
                        if ok {
                            matched = Some((len, block));
                            break;
                        }
                    }
                    match matched {
                        Some((len, block)) => {
                            out.push(Piece::General(Ast::Plus(Box::new(Ast::literal(&block)))));
                            k += len;
                        }
                        None => {
                            match out.last_mut() {
                                Some(Piece::Literal(s)) => s.push(piece_chars[k]),
                                _ => out.push(Piece::Literal(piece_chars[k].to_string())),
                            }
                            k += 1;
                        }
                    }
                }
            }
        }
    }
    pieces_to_ast(&out)
}

/// Random sample of an AST with a loose size budget.
fn sample_ast(ast: &Ast, rng: &mut dyn rand::RngCore, budget: usize) -> String {
    match ast {
        Ast::Empty => String::new(),
        Ast::Class(c) => sample_class(c, rng).to_string(),
        Ast::Concat(parts) => {
            parts.iter().map(|p| sample_ast(p, rng, budget / parts.len().max(1))).collect()
        }
        Ast::Alt(parts) => {
            if parts.is_empty() {
                String::new()
            } else {
                let idx = rng.gen_range(0..parts.len());
                sample_ast(&parts[idx], rng, budget)
            }
        }
        Ast::Star(inner) => {
            let reps = rng.gen_range(0..=2.min(budget.max(1)));
            (0..reps).map(|_| sample_ast(inner, rng, budget / 2)).collect()
        }
        Ast::Plus(inner) => {
            let reps = rng.gen_range(1..=2.min(budget.max(1)));
            (0..reps).map(|_| sample_ast(inner, rng, budget / 2)).collect()
        }
        Ast::Opt(inner) => {
            if rng.gen_bool(0.5) {
                sample_ast(inner, rng, budget)
            } else {
                String::new()
            }
        }
    }
}

fn sample_class(c: &CharClass, rng: &mut dyn rand::RngCore) -> char {
    if c.any || c.negated {
        return 'a';
    }
    if c.ranges.is_empty() {
        return 'a';
    }
    let (lo, hi) = c.ranges[rng.gen_range(0..c.ranges.len())];
    let span = (hi as u32) - (lo as u32) + 1;
    char::from_u32(lo as u32 + rng.gen_range(0..span)).unwrap_or(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn json_like(s: &str) -> bool {
        // Tiny JSON-ish oracle for tests: {"<letters>":<digits>} objects and digits.
        fn value(b: &[u8], pos: usize) -> Option<usize> {
            match b.get(pos)? {
                b'{' => {
                    let mut p = pos + 1;
                    if b.get(p) == Some(&b'}') {
                        return Some(p + 1);
                    }
                    loop {
                        if b.get(p) != Some(&b'"') {
                            return None;
                        }
                        p += 1;
                        while b.get(p).is_some_and(u8::is_ascii_lowercase) {
                            p += 1;
                        }
                        if b.get(p) != Some(&b'"') {
                            return None;
                        }
                        p += 1;
                        if b.get(p) != Some(&b':') {
                            return None;
                        }
                        p = value(b, p + 1)?;
                        match b.get(p) {
                            Some(b'}') => return Some(p + 1),
                            Some(b',') => p += 1,
                            _ => return None,
                        }
                    }
                }
                c if c.is_ascii_digit() => {
                    let mut p = pos;
                    while b.get(p).is_some_and(u8::is_ascii_digit) {
                        p += 1;
                    }
                    Some(p)
                }
                _ => None,
            }
        }
        value(s.as_bytes(), 0) == Some(s.len())
    }

    #[test]
    fn learns_classes_and_accepts_variants() {
        let oracle = json_like;
        let seeds = vec!["{\"a\":1}".to_string(), "7".to_string()];
        let glade = Glade::learn(&oracle, &seeds);
        // Seeds accepted.
        for s in &seeds {
            assert!(glade.accepts(s));
        }
        // Character-class generalisation: other keys/numbers are accepted.
        assert!(glade.accepts("{\"xyz\":42}"));
        assert!(glade.accepts("123"));
        // But unbounded nesting is out of reach for the regular approximation.
        assert!(!glade.accepts("{\"a\":{\"b\":1}}"));
        assert!(glade.queries_used() > 0);
    }

    #[test]
    fn precision_of_samples() {
        let oracle = json_like;
        let seeds = vec!["{\"k\":3}".to_string(), "{}".to_string()];
        let glade = Glade::learn(&oracle, &seeds);
        let mut rng = StdRng::seed_from_u64(9);
        let mut valid = 0usize;
        let total = 50usize;
        for _ in 0..total {
            let s = glade.sample(&mut rng, 20).unwrap();
            assert!(glade.accepts(&s), "sample {s:?} not accepted by its own grammar");
            if oracle(&s) {
                valid += 1;
            }
        }
        // GLADE-style learning is precision-oriented: most samples should be valid.
        assert!(valid * 2 > total, "precision too low: {valid}/{total}");
    }

    #[test]
    fn repetition_generalisation() {
        // Language: a+ b
        let oracle = |s: &str| {
            let b = s.as_bytes();
            !b.is_empty()
                && b[b.len() - 1] == b'b'
                && b[..b.len() - 1].iter().all(|&c| c == b'a')
                && b.len() >= 2
        };
        let seeds = vec!["aab".to_string()];
        let glade = Glade::learn(&oracle, &seeds);
        assert!(glade.accepts("aab"));
        assert!(glade.accepts("aaaab"));
        // Repetition blocks are one-or-more, so the invalid "b" stays rejected.
        assert!(!glade.accepts("b"));
    }

    #[test]
    fn plus_sampling_respects_budget() {
        // Regression: `Ast::Plus` sampling used `2.max(1)` (a constant 2) instead
        // of capping the repetition count by the remaining budget like `Ast::Star`
        // does, so exhausted budgets could still double the output.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let plus = Ast::Plus(Box::new(Ast::literal("a")));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let s = sample_ast(&plus, &mut rng, 1);
            assert_eq!(s, "a", "budget 1 admits exactly one repetition");
        }
    }
}
