//! The token scan as it was before the allocation-free rewrite, kept as a
//! test-only reference: `BTreeMap` frontier stepped one position at a time,
//! SipHash-keyed stack interning and visited set, a per-pair loop of
//! `TokenMatcher`-walking matchers and fresh buffers per call. The helpers
//! the rewrite left unchanged (the k-Repetition predicate, trace unwinding,
//! converted-word assembly) are shared with the serving scan. The
//! equivalence tests below feed it and the serving scan the same inputs and
//! require identical verdicts, conversions, trees and errors.

use std::collections::{BTreeMap, HashMap, HashSet};

use vstar::tokenizer::{call_marker, return_marker, TokenKind, TokenMatcher};
use vstar_vpl::TaggedChar;

use super::{
    build_converted, unwind_trace, Candidate, CompiledGrammar, DEAD, KIND_CALL, KIND_PLAIN,
    KIND_RETURN,
};
use crate::error::ParseError;
use crate::tree::ParseTree;

/// Outcome of the reference scan.
struct RefOutcome {
    takes: Option<Vec<(usize, Candidate)>>,
    furthest: usize,
    reached_end: bool,
    exhausted: bool,
    /// The most configurations queued at one position.
    widest: usize,
}

/// [`CompiledGrammar::recognize`] over the reference scan (token mode).
pub(super) fn recognize(g: &CompiledGrammar, s: &str) -> bool {
    let chars: Vec<char> = s.chars().collect();
    scan_tokens(g, &chars, false).takes.is_some()
}

/// Whether the reference scan of `s` refused a configuration it had not seen
/// for want of budget.
pub(super) fn exhausted(g: &CompiledGrammar, s: &str) -> bool {
    let chars: Vec<char> = s.chars().collect();
    scan_tokens(g, &chars, false).exhausted
}

/// The most configurations the reference scan of `s` queued at one
/// position.
pub(super) fn widest(g: &CompiledGrammar, s: &str) -> usize {
    let chars: Vec<char> = s.chars().collect();
    scan_tokens(g, &chars, false).widest
}

/// [`CompiledGrammar::converted_word`] over the reference scan (token mode).
pub(super) fn converted_word(g: &CompiledGrammar, s: &str) -> Option<String> {
    let chars: Vec<char> = s.chars().collect();
    let takes = scan_tokens(g, &chars, true).takes?;
    Some(build_converted(s, &takes, None))
}

/// [`CompiledGrammar::parse`] over the reference scan (token mode).
pub(super) fn parse(g: &CompiledGrammar, s: &str) -> Result<ParseTree, ParseError> {
    let chars: Vec<char> = s.chars().collect();
    let outcome = scan_tokens(g, &chars, true);
    let Some(takes) = outcome.takes else {
        let err = if outcome.reached_end {
            ParseError::incomplete()
        } else {
            ParseError::stuck(outcome.furthest)
        };
        return Err(err.with_raw_char_context(s, outcome.furthest));
    };
    let mut raw_index = Vec::new();
    let converted = build_converted(s, &takes, Some(&mut raw_index));
    let tagged: Vec<TaggedChar> = g.vpg.tagging().tag(&converted);
    g.tables.parse_tagged(&tagged).map_err(|e| {
        let raw_char = e.position().and_then(|p| raw_index.get(p).copied()).unwrap_or(chars.len());
        e.with_raw_char_context(s, raw_char)
    })
}

pub(super) fn first_match_at(g: &CompiledGrammar, chars: &[char], pos: usize) -> Option<Candidate> {
    let rest = &chars[pos..];
    let mut best: Option<Candidate> = None;
    for (pair, p) in g.tokenizer.pairs().iter().enumerate() {
        for (kind, matcher) in [(TokenKind::Call, &p.call), (TokenKind::Return, &p.ret)] {
            if let Some(len) = shortest_match_len(matcher, rest) {
                if best.is_none_or(|b| len < b.len as usize) {
                    best = Some(Candidate { pair: pair as u32, kind, len: len as u32 });
                }
            }
        }
    }
    best
}

fn scan_tokens(g: &CompiledGrammar, chars: &[char], want_trace: bool) -> RefOutcome {
    let auto = &g.auto;
    let matches: Vec<Option<Candidate>> =
        (0..chars.len()).map(|i| first_match_at(g, chars, i)).collect();

    let mut nodes: Vec<(u32, u32)> = Vec::new();
    let mut node_ix: HashMap<(u32, u32), u32> = HashMap::new();
    let mut traces: Vec<(u32, u32, Candidate)> = Vec::new();

    let mut frontier: BTreeMap<usize, Vec<(u32, u32, u32)>> = BTreeMap::new();
    let mut visited: HashSet<(usize, u32, u32)> = HashSet::new();
    let mut budget = super::MAX_SCAN_CONFIGS;
    let mut exhausted = false;
    let mut furthest = 0usize;
    let mut reached_end = false;
    let mut widest = 0usize;

    let enqueue = |frontier: &mut BTreeMap<usize, Vec<(u32, u32, u32)>>,
                   visited: &mut HashSet<(usize, u32, u32)>,
                   budget: &mut usize,
                   exhausted: &mut bool,
                   pos: usize,
                   state: u32,
                   stack: u32,
                   trace: u32| {
        if *budget == 0 {
            *exhausted |= !visited.contains(&(pos, state, stack));
            return;
        }
        if !visited.insert((pos, state, stack)) {
            return;
        }
        *budget -= 1;
        frontier.entry(pos).or_default().push((state, stack, trace));
    };
    enqueue(&mut frontier, &mut visited, &mut budget, &mut exhausted, 0, auto.start, 0, 0);

    while let Some((pos, bucket)) = frontier.pop_first() {
        furthest = furthest.max(pos);
        widest = widest.max(bucket.len());
        for (state, stack, trace) in bucket {
            if pos == chars.len() {
                if stack == 0 && auto.accepting[state as usize] {
                    return RefOutcome {
                        takes: Some(unwind_trace(&traces, trace)),
                        furthest: pos,
                        reached_end: true,
                        exhausted,
                        widest,
                    };
                }
                reached_end = true;
                continue;
            }

            let cand = matches[pos];
            let skip_allowed = match cand {
                None => true,
                Some(c) => {
                    g.auto.repeatable(state, chars[pos..pos + c.len as usize].iter().copied())
                }
            };
            if skip_allowed {
                let code = auto.classify(chars[pos]);
                if code >> 30 == KIND_PLAIN {
                    let s2 = auto.plain_step(state, code & 0x3FFF_FFFF);
                    if s2 != DEAD {
                        enqueue(
                            &mut frontier,
                            &mut visited,
                            &mut budget,
                            &mut exhausted,
                            pos + 1,
                            s2,
                            stack,
                            trace,
                        );
                    }
                }
            }

            let Some(cand) = cand else {
                continue;
            };
            let marker = match cand.kind {
                TokenKind::Call => call_marker(cand.pair as usize),
                TokenKind::Return => return_marker(cand.pair as usize),
            };
            let mcode = auto.classify(marker);
            let (mut s2, mut stack2) = (state, stack);
            let mut alive = match cand.kind {
                TokenKind::Call => {
                    if mcode >> 30 != KIND_CALL {
                        false
                    } else {
                        let (body, sym) = auto.call_step(s2, mcode & 0x3FFF_FFFF);
                        if body == DEAD {
                            false
                        } else {
                            stack2 = *node_ix.entry((stack2, sym)).or_insert_with(|| {
                                nodes.push((stack, sym));
                                nodes.len() as u32
                            });
                            s2 = body;
                            true
                        }
                    }
                }
                TokenKind::Return => true,
            };
            if alive {
                match auto.run_plains(s2, chars[pos..pos + cand.len as usize].iter().copied()) {
                    Some(q) => s2 = q,
                    None => alive = false,
                }
            }
            if alive && cand.kind == TokenKind::Return {
                alive = if mcode >> 30 != KIND_RETURN || stack2 == 0 {
                    false
                } else {
                    let (below, sym) = nodes[stack2 as usize - 1];
                    s2 = auto.ret_step(s2, sym, mcode & 0x3FFF_FFFF);
                    stack2 = below;
                    s2 != DEAD
                };
            }
            if alive {
                let trace2 = if want_trace {
                    traces.push((trace, pos as u32, cand));
                    traces.len() as u32
                } else {
                    0
                };
                enqueue(
                    &mut frontier,
                    &mut visited,
                    &mut budget,
                    &mut exhausted,
                    pos + cand.len as usize,
                    s2,
                    stack2,
                    trace2,
                );
            }
        }
    }
    RefOutcome { takes: None, furthest, reached_end, exhausted, widest }
}

fn shortest_match_len(matcher: &TokenMatcher, rest: &[char]) -> Option<usize> {
    match matcher {
        TokenMatcher::Literal(lit) => {
            let mut n = 0usize;
            let mut it = rest.iter();
            for lc in lit.chars() {
                if it.next() != Some(&lc) {
                    return None;
                }
                n += 1;
            }
            (n > 0).then_some(n)
        }
        TokenMatcher::Dfa(dfa) => {
            let mut state = dfa.initial();
            for (i, &c) in rest.iter().enumerate() {
                state = dfa.delta(state, c)?;
                if dfa.accepting().contains(&state) {
                    return Some(i + 1);
                }
            }
            None
        }
    }
}

#[path = "../../tests/support/mod.rs"]
mod support;

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vstar::tokenizer::{call_marker, return_marker, TokenKind, TokenMatcher};
    use vstar::{Mat, PartialTokenizer, TokenDiscovery, TokenPair, VStar, VStarConfig};
    use vstar_automata::Dfa;
    use vstar_oracles::{table1_languages, Json, Language, Lisp, Xml};
    use vstar_vpl::{Tagging, VpgBuilder};

    use super::super::{Candidate, CompileLearned, CompiledGrammar};

    /// Learns `lang` with the default pipeline and compiles it, once per
    /// Table-1 language for all tests of this module.
    fn compile(lang: &dyn Language) -> &'static CompiledGrammar {
        static LEARNED: [OnceLock<CompiledGrammar>; 5] = [const { OnceLock::new() }; 5];
        let slot = table1_languages()
            .iter()
            .position(|l| l.name() == lang.name())
            .expect("a Table-1 language");
        LEARNED[slot].get_or_init(|| {
            let oracle = |s: &str| lang.accepts(s);
            let mat = Mat::new(&oracle);
            let result = VStar::new(VStarConfig::default())
                .learn(&mat, &lang.alphabet(), &lang.seeds())
                .unwrap_or_else(|e| panic!("{}: learning failed: {e}", lang.name()));
            result.compile().unwrap()
        })
    }

    /// The serving scan and the reference scan give the same verdict,
    /// conversion, tree, error and budget exhaustion on `s`.
    fn assert_scans_agree(g: &CompiledGrammar, name: &str, s: &str) {
        assert_eq!(g.recognize(s), super::recognize(g, s), "{name}: verdict on {s:?}");
        assert_eq!(g.converted_word(s), super::converted_word(g, s), "{name}: conversion of {s:?}");
        assert_eq!(g.parse(s), super::parse(g, s), "{name}: parse of {s:?}");
        assert_eq!(
            g.scan_tokens(s, false).exhausted,
            super::exhausted(g, s),
            "{name}: budget exhaustion on {s:?}"
        );
    }

    /// How often the serving scan of `s` left single-configuration mode:
    /// the `serve.scan_handoffs` a recognition counts, which must equal the
    /// scan's own tally.
    fn handoffs(g: &CompiledGrammar, s: &str) -> u64 {
        counters(g, s).0
    }

    /// The `serve.scan_handoffs` and `serve.scan_frontier` counts of one
    /// recognition of `s`: how often the walk left single-configuration
    /// mode, and whether the scan reached the hash-consed frontier.
    fn counters(g: &CompiledGrammar, s: &str) -> (u64, u64) {
        let guard = vstar_telemetry::install();
        let _ = g.recognize(s);
        let facts = guard.finish().facts;
        let handoffs = facts.counter("serve.scan_handoffs");
        assert_eq!(handoffs, u64::from(g.scan_tokens(s, false).handoffs), "{s:?}");
        (handoffs, facts.counter("serve.scan_frontier"))
    }

    /// `s` and its one-character mutants over `alphabet`, at every position.
    fn with_mutants(s: &str, alphabet: &[char]) -> Vec<String> {
        let chars: Vec<char> = s.chars().collect();
        let mut out = vec![s.to_string()];
        for at in 0..chars.len() {
            for &c in alphabet {
                let mut mutant = chars.clone();
                mutant[at] = c;
                out.push(mutant.into_iter().collect());
            }
        }
        out
    }

    /// A token grammar over one literal pair and the plain characters
    /// `plain`: `S → ⊳ B ⊲ S | p S | ε`, where a body reads the call
    /// occurrence, then anything `S` reads, then the return occurrence.
    /// With `loose`, `S` also reads the occurrences' characters as plain
    /// text, so the k-Repetition skip and the take both survive at every
    /// occurrence.
    fn literal_pair_grammar(call: &str, ret: &str, plain: &[char], loose: bool) -> CompiledGrammar {
        let (call_m, ret_m) = (call_marker(0), return_marker(0));
        let mut b = VpgBuilder::new(Tagging::from_pairs([(call_m, ret_m)]).unwrap());
        let s = b.nonterminal("S");
        let body = b.nonterminal("B");
        b.empty_rule(s);
        for &c in plain {
            b.linear_rule(s, c, s);
        }
        if loose {
            for c in call.chars().chain(ret.chars()) {
                b.linear_rule(s, c, s);
            }
        }
        b.match_rule(s, call_m, body, ret_m, s);
        // B reads the call occurrence, then S's language, then the return
        // occurrence.
        let mut at = body;
        for (i, c) in call.chars().enumerate() {
            let next = b.nonterminal(&format!("C{i}"));
            b.linear_rule(at, c, next);
            at = next;
        }
        let inner = at;
        for &c in plain {
            b.linear_rule(inner, c, inner);
        }
        if loose {
            for c in call.chars().chain(ret.chars()) {
                b.linear_rule(inner, c, inner);
            }
        }
        b.match_rule(inner, call_m, body, ret_m, inner);
        let mut at = inner;
        for (i, c) in ret.chars().enumerate() {
            let next = b.nonterminal(&format!("R{i}"));
            b.linear_rule(at, c, next);
            at = next;
        }
        b.empty_rule(at);
        let mut tokenizer = PartialTokenizer::new();
        tokenizer.push_pair(TokenPair {
            call: TokenMatcher::Literal(call.to_string()),
            ret: TokenMatcher::Literal(ret.to_string()),
        });
        CompiledGrammar::assemble(b.build(s).unwrap(), tokenizer, TokenDiscovery::Tokens).unwrap()
    }

    /// Json inputs where the walk hands its configuration to the frontier:
    /// an ambiguous `{` inside a string mid-input; two of them, so the walk
    /// takes the lone survivor back in between and hands it over again; and
    /// both of json's pairs around one, so the traces must carry each
    /// take's pair. Each with its one-character mutants.
    #[test]
    fn serving_scan_matches_the_reference_across_handoffs() {
        let g = compile(&Json::new());
        let cases = [
            ("[1,{\"a{b\":2},3]", 1),
            ("[{\"a{\":1},{\"b{\":2}]", 2),
            ("[{\"a{\":[1,{\"b\":[]}]}]", 1),
        ];
        for (s, at_least) in cases {
            assert!(g.recognize(s), "{s:?}");
            let counted = handoffs(g, s);
            assert!(counted >= at_least, "{s:?}: {counted} handoffs");
            for input in with_mutants(s, &['{', '}', '"', '[', ']', ',']) {
                assert_scans_agree(g, "json", &input);
            }
        }
        let converted = g.converted_word("[{\"a{\":[1,{\"b\":[]}]}]").unwrap();
        for pair in 0..2 {
            assert!(converted.contains(call_marker(pair)), "{converted:?}");
            assert!(converted.contains(return_marker(pair)), "{converted:?}");
        }
    }

    /// Plain text with a non-ASCII character after an ASCII prefix, inside
    /// and outside open tokens: the walk over the bytes hands over at the
    /// `λ` with its stack, at a character index, and the walk resumes over
    /// the characters. Under 300 open tokens the hand-over interns a deep
    /// walked stack. Error positions after the `λ` count characters.
    #[test]
    fn serving_scan_matches_the_reference_after_non_ascii_text() {
        let g = literal_pair_grammar("(", ")", &['a', 'λ'], false);
        for s in ["λ", "aλa", "((aλ)λ(a))λa", "((((λ))))", "(a)(λ)"] {
            assert!(g.recognize(s), "{s:?}");
            assert!(handoffs(&g, s) >= 1, "{s:?}");
            for input in with_mutants(s, &['(', ')', 'a', 'λ', '?']) {
                assert_scans_agree(&g, "non-ascii", &input);
            }
        }
        let deep = format!("{}aλa{}", "(".repeat(300), ")".repeat(300));
        assert!(g.recognize(&deep));
        assert_eq!(handoffs(&g, &deep), 1);
        for s in [&deep[..], &deep[..deep.len() - 1], &deep[1..]] {
            assert_scans_agree(&g, "non-ascii", s);
        }
        let e = g.parse("aλ?").unwrap_err();
        assert_eq!(e.position(), Some(2), "{e:?}");
        assert_eq!(e.raw_span(), Some((3, 4)), "{e:?}");
    }

    /// Multi-character literals `<<` and `>>`: where the grammar's plain
    /// rules also read them, every `<<` forks and the frontier gets
    /// two-character takes from the walk; where they do not, the walk
    /// matches each occurrence at its table stop and takes it in place.
    #[test]
    fn serving_scan_matches_the_reference_on_multi_character_literals() {
        let alphabet = ['<', '>', 'x'];
        let loose = literal_pair_grammar("<<", ">>", &['x'], true);
        let strict = literal_pair_grammar("<<", ">>", &['x'], false);
        for w in vstar_vpl::words::all_strings(&alphabet, 6) {
            assert_scans_agree(&loose, "loose", &w);
            assert_scans_agree(&strict, "strict", &w);
        }
        for s in ["<<x>>", "x<<<<x>>>>x", "<<>><<>>"] {
            assert!(loose.recognize(s) && strict.recognize(s), "{s:?}");
            assert!(handoffs(&loose, s) >= 1, "{s:?}");
            assert_eq!(handoffs(&strict, s), 0, "{s:?}");
            assert_scans_agree(&loose, "loose", s);
            assert_scans_agree(&strict, "strict", s);
        }
    }

    /// Xml's return token `/[a-z]+>` is longer than one character: the walk
    /// matches it where its table stops and takes it in place, so xml
    /// members never reach the frontier. A `λ` inside makes the frontier
    /// and the walk over the characters take the same tokens.
    #[test]
    fn serving_scan_matches_the_reference_on_multi_character_returns() {
        let g = compile(&Xml::new());
        for s in ["<a>x</a>", "<a><b>y</b></a>", "<ab>hi<q>z</q>go</ab>", "<p>hi<q>z</q></p>"] {
            assert!(g.recognize(s), "{s:?}");
            assert_eq!(handoffs(g, s), 0, "{s:?}");
            for input in with_mutants(s, &['<', '>', '/', 'a']) {
                assert_scans_agree(g, "xml", &input);
            }
            let mid = s.find('>').unwrap() + 1;
            let with_lambda = format!("{}λ{}", &s[..mid], &s[mid..]);
            assert!(handoffs(g, &with_lambda) >= 1, "{with_lambda:?}");
            assert_scans_agree(g, "xml", &with_lambda);
        }
    }

    /// The walk table's size: one column per ASCII character the grammar or
    /// a matcher reads, plus one shared dead column, for every state — so
    /// at most 129 columns, and for the Table-1 grammars one more column
    /// than the plain table has — and at most one fork per state and
    /// one-character token.
    #[test]
    fn walk_table_stays_within_its_bound() {
        for lang in table1_languages() {
            let g = compile(lang.as_ref());
            let scan = &g.scan;
            let read: usize = (0..128u8)
                .map(char::from)
                .filter(|&c| {
                    g.auto.classify(c) != super::super::SYM_UNKNOWN
                        || scan.matcher.class[c as usize] != 0
                })
                .count();
            assert_eq!(scan.columns, read + 1, "{}", lang.name());
            assert!(scan.columns <= 129);
            let states = g.table_view().state_count();
            assert_eq!(scan.cells.len(), states * scan.columns, "{}", lang.name());
            let token_columns = scan.single.iter().filter(|c| c.is_some()).count();
            assert!(scan.forks.len() <= states * token_columns, "{}", lang.name());
            let plain_cells = g.stats().plain_table_cells as usize;
            assert!(
                scan.cells.len() <= plain_cells + states,
                "{}: {} walk cells against {plain_cells} plain cells",
                lang.name(),
                scan.cells.len()
            );
        }
    }

    /// Every corpus input of the artifact round-trip tests, three more
    /// one-character mutants of each, their conversions (marker text fed as
    /// raw input) and `λ`-prefixed copies (non-ASCII characters), for all
    /// five Table-1 languages.
    #[test]
    fn serving_scan_matches_the_reference_on_table1_corpora() {
        for lang in table1_languages() {
            let g = compile(lang.as_ref());
            let alphabet = lang.alphabet();
            let mut rng = StdRng::seed_from_u64(0x5CA7 ^ lang.name().len() as u64);
            let corpus = super::support::corpus(lang.as_ref());
            let mut inputs = corpus.clone();
            for s in &corpus {
                let chars: Vec<char> = s.chars().collect();
                for _ in 0..3.min(chars.len()) {
                    let mut mutant = chars.clone();
                    mutant[rng.gen_range(0..chars.len())] =
                        alphabet[rng.gen_range(0..alphabet.len())];
                    inputs.push(mutant.into_iter().collect());
                }
                inputs.extend(g.converted_word(s));
                inputs.push(format!("λ{s}"));
            }
            let mut members = 0usize;
            for s in &inputs {
                assert_scans_agree(g, lang.name(), s);
                members += usize::from(g.recognize(s));
            }
            assert!(members >= 30, "{}: only {members} members", lang.name());
        }
    }

    /// An input with two accepting readings: `(x)` as a token pair around
    /// plain text, or as plain text throughout (the plain rules loop on
    /// both brackets, so both skips are allowed). The scan returns the
    /// reading whose configuration was queued first at the end of the input
    /// — the skip reading, since skip branches are queued before take
    /// branches and buckets are first-in-first-out. Processing a bucket in
    /// any other order returns the other reading.
    #[test]
    fn ambiguous_readings_resolve_in_queue_order() {
        let (call, ret) = (call_marker(0), return_marker(0));
        let mut b = VpgBuilder::new(Tagging::from_pairs([(call, ret)]).unwrap());
        let [s, body, body_x, body_close, plain, plain_close, end] =
            ["S", "B", "BX", "BC", "P", "Q", "E"].map(|n| b.nonterminal(n));
        b.match_rule(s, call, body, ret, end);
        b.linear_rule(body, '(', body_x);
        b.linear_rule(body_x, 'x', body_close);
        b.linear_rule(body_close, ')', end);
        b.linear_rule(s, '(', plain);
        b.linear_rule(plain, '(', plain);
        b.linear_rule(plain, 'x', plain_close);
        b.linear_rule(plain_close, ')', plain_close);
        b.linear_rule(plain_close, 'λ', plain_close);
        b.empty_rule(plain_close);
        b.linear_rule(end, 'λ', end);
        b.empty_rule(end);
        let mut tokenizer = PartialTokenizer::new();
        tokenizer.push_pair(TokenPair {
            call: TokenMatcher::Literal("(".to_string()),
            ret: TokenMatcher::Literal(")".to_string()),
        });
        let g = CompiledGrammar::assemble(b.build(s).unwrap(), tokenizer, TokenDiscovery::Tokens)
            .unwrap();
        for input in ["(x)", "((x))", "(x))", "((x)", "x)", "()"] {
            assert_scans_agree(&g, "ambiguous", input);
        }
        assert_eq!(g.converted_word("(x)").as_deref(), Some("(x)"));
        assert_eq!(g.converted_word("x)"), None);
    }

    /// Long json and lisp documents (generated members joined into one
    /// array or list, each with a one-character mutant), among them
    /// documents whose scan exhausts `MAX_SCAN_CONFIGS`: the budget must run
    /// out at the same configuration in both scans, and each exhausted
    /// reject counts one `serve.scan_exhausted`.
    #[test]
    fn serving_scan_matches_the_reference_on_budget_exhausting_documents() {
        let mut exhausted = 0usize;
        let mut counted_rejects = 0u64;
        for lang in [&Json::new() as &dyn Language, &Lisp::new()] {
            let g = compile(lang);
            let alphabet = lang.alphabet();
            let mut rng = StdRng::seed_from_u64(0xD0C ^ lang.name().len() as u64);
            for _ in 0..3 {
                let mut parts = vec![lang.generate(&mut rng, 24)];
                while parts.iter().map(String::len).sum::<usize>() < 1600 {
                    parts.push(lang.generate(&mut rng, 24));
                }
                let doc = match lang.name() {
                    "json" => format!("[{}]", parts.join(",")),
                    _ => format!("({})", parts.join(" ")),
                };
                let mut mutant: Vec<char> = doc.chars().collect();
                let at = rng.gen_range(0..mutant.len());
                mutant[at] = alphabet[rng.gen_range(0..alphabet.len())];
                for s in [doc, mutant.into_iter().collect()] {
                    assert_scans_agree(g, lang.name(), &s);
                    let outcome = g.scan_tokens(&s, false);
                    // An exhausted reject counts once per call.
                    let guard = vstar_telemetry::install();
                    let accepted = g.recognize(&s);
                    let counted = guard.finish().facts.counter("serve.scan_exhausted");
                    assert_eq!(counted, u64::from(outcome.exhausted && !accepted), "{s:?}");
                    exhausted += usize::from(outcome.exhausted);
                    counted_rejects += counted;
                }
            }
        }
        assert!(exhausted > 0, "no document exhausted the scan budget");
        assert!(counted_rejects > 0, "no exhausted scan was counted");
    }

    /// Lisp atoms around the budget: an atom of `n` letters takes `n + 1`
    /// configurations, all of them plain steps of one configuration, so the
    /// budget runs out between 131 070 and 131 073 letters. The serving scan
    /// steps such runs in place and must charge the budget and report the
    /// exhaustion exactly where the reference refuses a configuration.
    #[test]
    fn serving_scan_matches_the_reference_at_the_budget_boundary() {
        let g = compile(&Lisp::new());
        let mut exhausted = 0usize;
        for n in [10, 131_070, 131_071, 131_072, 131_073, 140_000] {
            let atom = "a".repeat(n);
            for s in [atom.clone(), format!("({atom})"), format!("(a {atom})")] {
                assert_scans_agree(g, "lisp", &s);
                exhausted += usize::from(g.scan_tokens(&s, false).exhausted);
            }
        }
        assert!(g.recognize(&"a".repeat(10)));
        assert!(exhausted > 0 && exhausted < 18, "{exhausted} of 18 inputs exhausted");
    }

    /// A hand-built tokenizer whose matchers overlap: equal shortest lengths
    /// across pairs (`ab`: pair 0's return against pair 1's call) and within
    /// one pair (`c`: pair 2's call DFA against its return literal; `λ`,
    /// non-ASCII, in pair 3), and a longer match of an earlier pair against a
    /// shorter one of a later pair (`xyz` for pair 0's call, `xy` for pair
    /// 1's return). The product matcher must pick what the per-pair
    /// reference picks at every position, and the scans must agree over a
    /// grammar that takes every pair anywhere.
    #[test]
    fn product_matcher_keeps_the_match_rule_on_overlapping_matchers() {
        let literal = |s: &str| TokenMatcher::Literal(s.to_string());
        // `c d*`: accepts after its first character.
        let c_then_ds = Dfa::new(
            vec!['c', 'd'],
            2,
            0,
            [1].into(),
            [((0, 'c'), 1), ((1, 'd'), 1)].into_iter().collect(),
        );
        let mut tokenizer = PartialTokenizer::new();
        for (call, ret) in [
            (literal("xyz"), literal("ab")),
            (literal("ab"), literal("xy")),
            (TokenMatcher::Dfa(c_then_ds), literal("c")),
            (literal("λ"), literal("λ")),
        ] {
            tokenizer.push_pair(TokenPair { call, ret });
        }
        let pairs = tokenizer.pairs().len();
        let tagging = Tagging::from_pairs((0..pairs).map(|i| (call_marker(i), return_marker(i))));
        let mut b = VpgBuilder::new(tagging.unwrap());
        let s = b.nonterminal("S");
        b.empty_rule(s);
        for plain in ['a', 'b', 'c', 'd', 'x', 'y', 'z', 'λ'] {
            b.linear_rule(s, plain, s);
        }
        for i in 0..pairs {
            b.match_rule(s, call_marker(i), s, return_marker(i), s);
        }
        let g = CompiledGrammar::assemble(b.build(s).unwrap(), tokenizer, TokenDiscovery::Tokens)
            .unwrap();

        let cand = |s: &str| {
            let chars: Vec<char> = s.chars().collect();
            g.first_match(&chars[..], 0).flatten().map(|c| (c.pair, c.kind, c.len))
        };
        assert_eq!(cand("ab"), Some((0, TokenKind::Return, 2)));
        assert_eq!(cand("xyz"), Some((1, TokenKind::Return, 2)));
        assert_eq!(cand("cdd"), Some((2, TokenKind::Call, 1)));
        assert_eq!(cand("λ"), Some((3, TokenKind::Call, 1)));
        assert_eq!(cand("zab"), None);

        let same = |a: Option<Candidate>, b: Option<Candidate>| {
            a.map(|c| (c.pair, c.kind, c.len)) == b.map(|c| (c.pair, c.kind, c.len))
        };
        let alphabet = ['a', 'b', 'c', 'd', 'x', 'y', 'z', 'λ'];
        for w in vstar_vpl::words::all_strings(&alphabet, 4) {
            let chars: Vec<char> = w.chars().collect();
            for pos in 0..chars.len() {
                assert!(
                    same(
                        g.first_match(&chars[..], pos).flatten(),
                        super::first_match_at(&g, &chars, pos)
                    ),
                    "candidate at {pos} of {w:?}"
                );
            }
            assert_scans_agree(&g, "overlapping", &w);
        }
    }

    /// Seeded random strings of 0–200 characters over each Table-1 alphabet
    /// and the characters of its learned tokenizer's matchers (drawn twice as
    /// often), against the reference.
    #[test]
    fn serving_scan_matches_the_reference_on_random_strings() {
        for (seed, lang) in (0x7A1D..).zip(table1_languages()) {
            let g = compile(lang.as_ref());
            let mut pool = lang.alphabet();
            for pair in g.tokenizer().pairs() {
                for matcher in [&pair.call, &pair.ret] {
                    match matcher {
                        TokenMatcher::Literal(lit) => pool.extend(lit.chars()),
                        TokenMatcher::Dfa(dfa) => pool.extend(dfa.alphabet()),
                    }
                }
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..48 {
                let len = rng.gen_range(0..=200);
                let s: String = (0..len).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
                assert_scans_agree(g, lang.name(), &s);
            }
        }
    }

    /// A token grammar over the pair `(`/`)` whose forks resolve fast:
    ///
    /// * `S → x S | ( P | ⊳ B ⊲ S | ε`, `P → ( P | y S | ε`: outside a
    ///   token, `(` is plain text that loops (`((`…), so every `(` there
    ///   forks into its k-Repetition skip and its take, and a following `y`
    ///   or `z` kills one of the two readings;
    /// * `B → ( C`, `C → z C | ⊳ B ⊲ C | ) R`, `R → ε`: inside a token, `(`
    ///   only opens a nested token, so the take reading nests one own stack
    ///   symbol per `(` while the skip reading stays one configuration.
    fn fork_grammar() -> CompiledGrammar {
        let (call, ret) = (call_marker(0), return_marker(0));
        let mut b = VpgBuilder::new(Tagging::from_pairs([(call, ret)]).unwrap());
        let [s, p, body, inner, end] = ["S", "P", "B", "C", "R"].map(|n| b.nonterminal(n));
        b.linear_rule(s, 'x', s);
        b.linear_rule(s, '(', p);
        b.match_rule(s, call, body, ret, s);
        b.empty_rule(s);
        b.linear_rule(p, '(', p);
        b.linear_rule(p, 'y', s);
        b.empty_rule(p);
        b.linear_rule(body, '(', inner);
        b.linear_rule(inner, 'z', inner);
        b.match_rule(inner, call, body, ret, inner);
        b.linear_rule(inner, ')', end);
        b.empty_rule(end);
        let mut tokenizer = PartialTokenizer::new();
        tokenizer.push_pair(TokenPair {
            call: TokenMatcher::Literal("(".to_string()),
            ret: TokenMatcher::Literal(")".to_string()),
        });
        CompiledGrammar::assemble(b.build(s).unwrap(), tokenizer, TokenDiscovery::Tokens).unwrap()
    }

    /// Lisp `(`ᵈ `a` `)`ᵈ and json `[`ᵈ `1` `]`ᵈ for d = 1..20. From the
    /// third bracket on, every bracket forks (its k-Repetition skip and its
    /// take both survive), so the readings multiply with the depth. The
    /// lock-step set holds the scan while no position queues more than
    /// `LOCKSTEP_WIDTH` configurations (d ≤ 4, at most 5, the lanes popping
    /// below the stack walked before the fork on the way out, and the
    /// inputs one bracket short rejected at the end in the set) and spills
    /// into the frontier exactly where one does (d ≥ 5, 9 and more). From
    /// d = 19 on the readings exhaust the budget and the member is rejected,
    /// a known limit of the hash-consed frontier.
    #[test]
    fn lock_step_set_spills_into_the_frontier_at_its_width() {
        let width = super::super::LOCKSTEP_WIDTH;
        for (lang, open, atom, close) in
            [(&Lisp::new() as &dyn Language, "(", "a", ")"), (&Json::new(), "[", "1", "]")]
        {
            let g = compile(lang);
            for d in 1..=20 {
                let s = format!("{}{atom}{}", open.repeat(d), close.repeat(d));
                assert_scans_agree(g, lang.name(), &s);
                let (handoffs, frontier) = counters(g, &s);
                assert_eq!(handoffs, u64::from(d >= 3), "{s:?}");
                let widest = super::widest(g, &s);
                assert_eq!(frontier, u64::from(widest > width), "{s:?}: {widest} at one position");
                assert_eq!(frontier, u64::from(d >= 5), "{s:?}");
                assert_eq!(g.recognize(&s), d <= 18, "{s:?}");
                assert_eq!(g.scan_tokens(&s, false).exhausted, d >= 19, "{s:?}");
                if d <= 6 {
                    // One bracket short: the readings reach the end of the
                    // input in the set (d = 3, 4) or the frontier, open.
                    let open_end = &s[..s.len() - 1];
                    assert_scans_agree(g, lang.name(), open_end);
                    assert!(g.parse(open_end).is_err(), "{open_end:?}");
                    assert_eq!(counters(g, open_end), (u64::from(d >= 3), u64::from(d >= 5)));
                }
            }
        }
    }

    /// `(`ᵐ `z` `)`ᵐ in [`fork_grammar`]: the first `(` forks, and the take
    /// reading nests `m` own stack symbols next to the skip reading until
    /// `z` kills the skip. The set holds up to `LOCKSTEP_DEPTH` = 4 of them
    /// (m ≤ 4, and the walk takes the survivor back with its stack rebuilt);
    /// the fifth spills the two configurations into the frontier.
    #[test]
    fn lock_step_set_spills_into_the_frontier_at_its_depth() {
        let g = fork_grammar();
        let depth = super::super::LOCKSTEP_DEPTH as usize;
        for m in 1..=7 {
            let s = format!("{}z{}", "(".repeat(m), ")".repeat(m));
            assert!(g.recognize(&s), "{s:?}");
            assert_eq!(counters(&g, &s), (1, u64::from(m > depth)), "{s:?}");
            for input in with_mutants(&s, &['(', ')', 'x', 'y', 'z']) {
                assert_scans_agree(&g, "fork", &input);
            }
        }
    }

    /// Forks in [`fork_grammar`] where the set ends the scan or gives the
    /// survivor back: a fork at the last character, accepted by its skip
    /// (`x(`, `x((`) in queue order before the take is looked at;
    /// a fork right after the walk took a lone survivor back (each `(y`:
    /// the `y` kills the take, and the next `(` forks again at once), also
    /// after a take the walk closed (`(z)`). None of them reaches the
    /// frontier. (Lanes that pop below the stack walked before their fork
    /// are in `lock_step_set_spills_into_the_frontier_at_its_width`.)
    #[test]
    fn lock_step_set_ends_scans_and_hands_back_to_the_walk() {
        let g = fork_grammar();
        let cases = [
            ("x(", 1, true),
            ("x((", 1, true),
            ("(y(y(y", 3, true),
            ("(y(y(z)x", 3, true),
            ("(z)(z)", 2, true),
        ];
        for (s, handoffs, member) in cases {
            assert_eq!(g.recognize(s), member, "{s:?}");
            assert_eq!(counters(&g, s), (handoffs, 0), "{s:?}");
            for input in with_mutants(s, &['(', ')', 'x', 'y', 'z']) {
                assert_scans_agree(&g, "fork", &input);
            }
        }
        assert_eq!(g.converted_word("x(").as_deref(), Some("x("));
        // Every word over the alphabet up to length 6, against the reference.
        for w in vstar_vpl::words::all_strings(&['(', ')', 'x', 'y', 'z'], 6) {
            assert_scans_agree(&g, "fork", &w);
        }
    }

    /// Traced scans (`parse`, `converted_word`) that stay in the lock-step
    /// set while takes of both json pairs are recorded: a `{` inside a
    /// string forks, and its take reading opens objects and arrays beside
    /// the skip reading until one of them dies.
    #[test]
    fn lock_step_set_records_the_takes_of_both_json_pairs() {
        let g = compile(&Json::new());
        for s in ["[{\"a{\":[1,{\"b\":[]}]}]", "{\"{\":[{\"c\":1}]}", "[[{\"a{\":{}}]]"] {
            assert!(g.recognize(s), "{s:?}");
            let (handoffs, frontier) = counters(g, s);
            assert!(
                handoffs >= 1 && frontier == 0,
                "{s:?}: {handoffs} handoffs, frontier {frontier}"
            );
            let converted = g.converted_word(s).unwrap();
            for pair in 0..2 {
                assert!(converted.contains(call_marker(pair)), "{converted:?}");
                assert!(converted.contains(return_marker(pair)), "{converted:?}");
            }
            for input in with_mutants(s, &['{', '}', '"', '[', ']', ',']) {
                assert_scans_agree(g, "json", &input);
            }
        }
    }

    /// The set charges one unit of the budget per configuration it queues,
    /// as the frontier would: `(y`ᵐ `x`ⁿ in [`fork_grammar`] spends three
    /// units per `(y` in the set (the fork's two readings, then the skip's
    /// step over `y`) and one per walked `x`, so the budget runs out at
    /// the same `n` as in the reference scan.
    #[test]
    fn lock_step_set_charges_the_budget_like_the_frontier() {
        let g = fork_grammar();
        let m = 4;
        let prefix = "(y".repeat(m);
        assert_eq!(counters(&g, &prefix), (m as u64, 0));
        // The start configuration, three per `(y` and one per `x`.
        let boundary = super::super::MAX_SCAN_CONFIGS - 1 - 3 * m;
        let mut exhausted = 0;
        for n in boundary - 2..=boundary + 2 {
            let s = format!("{prefix}{}", "x".repeat(n));
            assert_scans_agree(&g, "fork", &s);
            exhausted += usize::from(g.scan_tokens(&s, false).exhausted);
        }
        assert_eq!(exhausted, 2, "the budget runs out after {boundary} letters");
    }

    /// The canonical stack of a lock-step configuration: a push that
    /// repeats the walked symbol above the prefix extends the prefix, a pop
    /// on the bare prefix shortens it (below the walked stack's top), and a
    /// fifth own symbol does not fit.
    #[test]
    fn lock_step_lanes_keep_one_form_per_stack() {
        use super::super::{Lane, StackOp, Step};
        let walked = [7, 8, 9];
        let step = |op| Step { state: 1, len: 1, op, took: None };
        let lane = Lane { state: 1, prefix: 2, ..Lane::default() };
        let popped = lane.then(&step(StackOp::Pop), &walked).unwrap();
        assert_eq!((popped.prefix, popped.depth, popped.top(&walked)), (1, 0, Some(7)));
        let bare = popped.then(&step(StackOp::Pop), &walked).unwrap();
        assert_eq!((bare.prefix, bare.top(&walked)), (0, None));
        let again = popped.then(&step(StackOp::Push(8)), &walked).unwrap();
        assert!(again.same(&lane), "{again:?}");
        let mut own = popped.then(&step(StackOp::Push(5)), &walked).unwrap();
        assert_eq!((own.prefix, own.depth, own.top(&walked)), (1, 1, Some(5)));
        for sym in 1..4 {
            own = own.then(&step(StackOp::Push(sym)), &walked).unwrap();
        }
        assert_eq!(own.own_symbols().collect::<Vec<_>>(), [5, 1, 2, 3]);
        assert!(own.then(&step(StackOp::Push(4)), &walked).is_none());
        assert!(lane.then(&Step { len: 2, ..step(StackOp::Keep) }, &walked).is_none());
    }

    /// Two accepting readings that the lock-step set carries to the end:
    /// in `S → ⊳ ( C ⊲ E | ( P`, `C → ) E`, `P → ( P | ) Q`,
    /// `Q → ) Q | λ Q | ε`, `E → λ E | ε`, the brackets of `()` are a token
    /// pair or plain text that loops, so `(` forks and both readings
    /// survive `)`. The scan keeps the configuration queued first: the skip
    /// reading, `()` as plain text. Stepping the set in any other order
    /// takes the pair, and so does spilling it into the frontier (at the
    /// non-ASCII `λ`) in any other order.
    #[test]
    fn lock_step_set_accepts_in_queue_order() {
        let (call, ret) = (call_marker(0), return_marker(0));
        let mut b = VpgBuilder::new(Tagging::from_pairs([(call, ret)]).unwrap());
        let [s, body, close, end, plain, plain_close] =
            ["S", "B", "C", "E", "P", "Q"].map(|n| b.nonterminal(n));
        b.match_rule(s, call, body, ret, end);
        b.linear_rule(body, '(', close);
        b.linear_rule(close, ')', end);
        b.empty_rule(end);
        b.linear_rule(s, '(', plain);
        b.linear_rule(plain, '(', plain);
        b.linear_rule(plain, ')', plain_close);
        b.linear_rule(plain_close, ')', plain_close);
        b.linear_rule(plain_close, 'λ', plain_close);
        b.empty_rule(plain_close);
        b.linear_rule(end, 'λ', end);
        let mut tokenizer = PartialTokenizer::new();
        tokenizer.push_pair(TokenPair {
            call: TokenMatcher::Literal("(".to_string()),
            ret: TokenMatcher::Literal(")".to_string()),
        });
        let g = CompiledGrammar::assemble(b.build(s).unwrap(), tokenizer, TokenDiscovery::Tokens)
            .unwrap();
        assert_eq!(counters(&g, "()"), (1, 0));
        assert_eq!(g.converted_word("()").as_deref(), Some("()"));
        assert_eq!(counters(&g, "()λ"), (1, 1));
        assert_eq!(g.converted_word("()λ").as_deref(), Some("()λ"));
        for w in vstar_vpl::words::all_strings(&['(', ')', 'λ'], 6) {
            assert_scans_agree(&g, "queue order", &w);
        }
    }
}
