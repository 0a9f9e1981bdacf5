//! Lint passes over compiled serving artifacts: dense-table integrity,
//! item-set reachability, compiled stack-symbol liveness, and tokenizer
//! decision ambiguity.
//!
//! A [`CompiledGrammar`] is trusted at serving time — `recognize_word` indexes
//! its tables without bounds checks beyond slice panics — so the integrity
//! lints re-derive every invariant the compiler is supposed to establish
//! (table geometry, cell ranges, start-state sanity) and report violations as
//! errors. Reachability and liveness findings are informational: the item-set
//! builder genuinely interns states that are never live (return targets of
//! pairs that cannot co-occur), and knowing how many is table-size headroom.

use std::collections::{BTreeSet, VecDeque};

use vstar::{TokenKind, TokenMatcher};
use vstar_parser::{CompiledGrammar, TableView};

use crate::report::{AnalysisReport, Severity};
use crate::vpg_lints::analyze_vpg;

/// How many individual orphan states/symbols get listed before the finding
/// switches to a count (no silent caps — the count is explicit).
const MAX_LISTED: usize = 16;

/// Runs every compiled-artifact lint and returns the findings.
///
/// The source grammar's lints run too, prefixed `grammar/`. Compiled-layer
/// codes: `CMP000` artifact stats card (info, always emitted), `CMP001`
/// table-geometry or cell-range violation (error), `CMP002` start-state
/// inconsistency (error), `CMP003` orphan interned item-set states (info),
/// `CMP004` compiled stack symbols never pushed or never popped from
/// reachable states (info), `CMP005` two different pairs with identical
/// same-kind token languages (warn), `CMP006` overlapping same-kind token
/// languages (info).
#[must_use]
pub fn analyze_compiled(cg: &CompiledGrammar) -> AnalysisReport {
    let mut report = AnalysisReport::new("compiled");
    report.absorb(analyze_vpg(cg.vpg()), "grammar");

    // The stats card first: the same identity block the serving daemon's
    // `/grammars` endpoint reports, so an artifact can be matched to a lint
    // report by version + fingerprint alone.
    let stats = cg.stats();
    report.push(
        "CMP000",
        Severity::Info,
        "stats",
        format!(
            "artifact v{} {} ({} mode): {} states, {} stack symbols, {} table cells \
             ({} plain / {} call / {} ret), {} nonterminals, {} rules",
            stats.artifact_version,
            stats.artifact_hash,
            stats.mode,
            stats.automaton_states,
            stats.stack_symbols,
            stats.plain_table_cells + stats.call_table_cells + stats.ret_table_cells,
            stats.plain_table_cells,
            stats.call_table_cells,
            stats.ret_table_cells,
            stats.nonterminals,
            stats.rules,
        ),
    );

    let view = cg.table_view();
    table_integrity(&view, &mut report);
    if report.is_clean(Severity::Error) {
        // Reachability walks index the tables; only meaningful once the
        // geometry is known good.
        reachability(&view, &mut report);
    }
    tokenizer_ambiguity(cg, &mut report);
    report
}

fn table_integrity(view: &TableView<'_>, report: &mut AnalysisReport) {
    let states = view.state_count();
    let syms = view.stack_symbol_count();
    if states == 0 {
        report.push("CMP002", Severity::Error, "states", "the artifact has no states at all");
        return;
    }
    if view.start() as usize >= states {
        report.push(
            "CMP002",
            Severity::Error,
            "start",
            format!("start state {} out of range (state count {states})", view.start()),
        );
    }

    let expect = |report: &mut AnalysisReport, table: &str, len: usize, want: usize| {
        if len != want {
            report.push(
                "CMP001",
                Severity::Error,
                format!("table/{table}"),
                format!("table length {len} does not match its geometry (expected {want})"),
            );
        }
    };
    expect(report, "plain", view.plain_table().len(), states * view.plain_chars().len());
    expect(report, "call", view.call_table().len(), states * view.call_chars().len());
    expect(report, "ret", view.ret_table().len(), states * syms * view.ret_chars().len());

    let mut bad_cells = 0usize;
    for &t in view.plain_table() {
        if t != TableView::DEAD && t as usize >= states {
            bad_cells += 1;
        }
    }
    for &(body, sym) in view.call_table() {
        if body != TableView::DEAD && (body as usize >= states || sym as usize >= syms) {
            bad_cells += 1;
        }
    }
    for &t in view.ret_table() {
        if t != TableView::DEAD && t as usize >= states {
            bad_cells += 1;
        }
    }
    if bad_cells > 0 {
        report.push(
            "CMP001",
            Severity::Error,
            "table/cells",
            format!("{bad_cells} transition cell(s) point outside the state or symbol range"),
        );
    }
}

fn reachability(view: &TableView<'_>, report: &mut AnalysisReport) {
    let states = view.state_count();
    let syms = view.stack_symbol_count();
    let n_plain = view.plain_chars().len();
    let n_call = view.call_chars().len();
    let n_ret = view.ret_chars().len();

    // Joint fixpoint: reachable states grow the pushable-symbol set, which
    // unlocks more return rows (stack over-approximation, as in the VPA pass).
    let mut reachable = vec![false; states];
    reachable[view.start() as usize] = true;
    let mut pushable = vec![false; syms];
    loop {
        let mut changed = false;
        for q in 0..states {
            if !reachable[q] {
                continue;
            }
            for id in 0..n_plain {
                let t = view.plain_table()[q * n_plain + id];
                if t != TableView::DEAD && !reachable[t as usize] {
                    reachable[t as usize] = true;
                    changed = true;
                }
            }
            for id in 0..n_call {
                let (body, sym) = view.call_table()[q * n_call + id];
                if body != TableView::DEAD {
                    if !reachable[body as usize] {
                        reachable[body as usize] = true;
                        changed = true;
                    }
                    if !pushable[sym as usize] {
                        pushable[sym as usize] = true;
                        changed = true;
                    }
                }
            }
            for (sym, pushed) in pushable.iter().enumerate() {
                if !pushed {
                    continue;
                }
                for id in 0..n_ret {
                    let t = view.ret_table()[(q * syms + sym) * n_ret + id];
                    if t != TableView::DEAD && !reachable[t as usize] {
                        reachable[t as usize] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let orphans: Vec<usize> = (0..states).filter(|&q| !reachable[q]).collect();
    if !orphans.is_empty() {
        report.push(
            "CMP003",
            Severity::Info,
            "states/orphans",
            format!(
                "{} of {states} interned item-set state(s) unreachable from the start: {:?}{}",
                orphans.len(),
                &orphans[..orphans.len().min(MAX_LISTED)],
                if orphans.len() > MAX_LISTED { " (truncated)" } else { "" }
            ),
        );
    }

    let mut popped = vec![false; syms];
    for (q, _) in reachable.iter().enumerate().filter(|&(_, &r)| r) {
        for (sym, is_pushed) in pushable.iter().enumerate() {
            if !is_pushed {
                continue;
            }
            for id in 0..n_ret {
                if view.ret_table()[(q * syms + sym) * n_ret + id] != TableView::DEAD {
                    popped[sym] = true;
                }
            }
        }
    }
    let dead_syms: Vec<usize> = (0..syms).filter(|&s| !pushable[s] || !popped[s]).collect();
    if !dead_syms.is_empty() {
        report.push(
            "CMP004",
            Severity::Info,
            "stack-symbols/dead",
            format!(
                "{} of {syms} compiled stack symbol(s) never pushed or never popped on a \
                 reachable path: {:?}{}",
                dead_syms.len(),
                &dead_syms[..dead_syms.len().min(MAX_LISTED)],
                if dead_syms.len() > MAX_LISTED { " (truncated)" } else { "" }
            ),
        );
    }
}

fn tokenizer_ambiguity(cg: &CompiledGrammar, report: &mut AnalysisReport) {
    let pairs = cg.tokenizer().pairs();
    for i in 0..pairs.len() {
        for j in i + 1..pairs.len() {
            for (kind, a, b) in [
                (TokenKind::Call, &pairs[i].call, &pairs[j].call),
                (TokenKind::Return, &pairs[i].ret, &pairs[j].ret),
            ] {
                let kind_name = match kind {
                    TokenKind::Call => "call",
                    TokenKind::Return => "return",
                };
                let location = format!("tokenizer/{kind_name}/{i}-{j}");
                if matchers_equivalent(a, b) {
                    report.push(
                        "CMP005",
                        Severity::Warn,
                        location,
                        format!(
                            "pairs {i} and {j} have identical {kind_name}-token languages: \
                             occurrences of those tokens are ambiguous"
                        ),
                    );
                } else if matchers_overlap(a, b) {
                    report.push(
                        "CMP006",
                        Severity::Info,
                        location,
                        format!(
                            "pairs {i} and {j} have overlapping {kind_name}-token languages: \
                             some strings tokenize both ways"
                        ),
                    );
                }
            }
        }
    }
}

/// A uniform DFA view over both matcher representations: a literal is the
/// linear automaton over its characters.
struct MatcherDfa<'a> {
    matcher: &'a TokenMatcher,
}

impl MatcherDfa<'_> {
    fn alphabet(&self) -> BTreeSet<char> {
        match self.matcher {
            TokenMatcher::Literal(lit) => lit.chars().collect(),
            TokenMatcher::Dfa(dfa) => dfa.alphabet().iter().copied().collect(),
        }
    }

    fn initial(&self) -> usize {
        match self.matcher {
            TokenMatcher::Literal(_) => 0,
            TokenMatcher::Dfa(dfa) => dfa.initial(),
        }
    }

    fn step(&self, state: usize, c: char) -> Option<usize> {
        match self.matcher {
            TokenMatcher::Literal(lit) => (lit.chars().nth(state) == Some(c)).then_some(state + 1),
            TokenMatcher::Dfa(dfa) => dfa.delta(state, c),
        }
    }

    fn accepting(&self, state: usize) -> bool {
        match self.matcher {
            TokenMatcher::Literal(lit) => state == lit.chars().count(),
            TokenMatcher::Dfa(dfa) => dfa.accepting().contains(&state),
        }
    }
}

/// `true` when both matchers accept exactly the same non-empty strings
/// (product walk over the union alphabet; an absent transition is a dead
/// state, which accepts nothing).
fn matchers_equivalent(a: &TokenMatcher, b: &TokenMatcher) -> bool {
    let (da, db) = (MatcherDfa { matcher: a }, MatcherDfa { matcher: b });
    let alphabet: BTreeSet<char> = da.alphabet().union(&db.alphabet()).copied().collect();
    let start = (Some(da.initial()), Some(db.initial()));
    let mut seen = BTreeSet::from([start]);
    let mut queue = VecDeque::from([(start, 0usize)]);
    while let Some(((sa, sb), depth)) = queue.pop_front() {
        let acc_a = sa.is_some_and(|s| da.accepting(s));
        let acc_b = sb.is_some_and(|s| db.accepting(s));
        // The empty string never tokenizes, so disagreement at depth 0 is
        // irrelevant.
        if depth > 0 && acc_a != acc_b {
            return false;
        }
        if sa.is_none() && sb.is_none() {
            continue; // both dead: no string revives either.
        }
        for &c in &alphabet {
            let next = (sa.and_then(|s| da.step(s, c)), sb.and_then(|s| db.step(s, c)));
            if seen.insert(next) {
                queue.push_back((next, depth + 1));
            }
        }
    }
    true
}

/// `true` when some non-empty string is accepted by both matchers.
fn matchers_overlap(a: &TokenMatcher, b: &TokenMatcher) -> bool {
    let (da, db) = (MatcherDfa { matcher: a }, MatcherDfa { matcher: b });
    let alphabet: BTreeSet<char> = da.alphabet().intersection(&db.alphabet()).copied().collect();
    let start = (da.initial(), db.initial());
    let mut seen = BTreeSet::from([start]);
    let mut queue = VecDeque::from([(start, 0usize)]);
    while let Some(((sa, sb), depth)) = queue.pop_front() {
        if depth > 0 && da.accepting(sa) && db.accepting(sb) {
            return true;
        }
        for &c in &alphabet {
            if let (Some(na), Some(nb)) = (da.step(sa, c), db.step(sb, c)) {
                if seen.insert((na, nb)) {
                    queue.push_back(((na, nb), depth + 1));
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstar_vpl::grammar::figure1_grammar;

    #[test]
    fn figure1_compiles_clean() {
        let cg = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
        let report = analyze_compiled(&cg);
        assert!(report.is_clean(Severity::Warn), "{:?}", report.at_least(Severity::Warn));
    }

    #[test]
    fn stats_card_is_always_emitted_and_names_the_artifact() {
        let cg = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
        let report = analyze_compiled(&cg);
        assert!(report.has("CMP000"), "{:?}", report.diagnostics);
        let stats = cg.stats();
        let card = report.diagnostics.iter().find(|d| d.code == "CMP000").unwrap();
        assert!(card.message.contains(&stats.artifact_hash), "{card:?}");
        assert!(card.message.contains(&format!("{} states", stats.automaton_states)), "{card:?}");
    }

    #[test]
    fn matcher_equivalence_and_overlap() {
        let lit = |s: &str| TokenMatcher::Literal(s.to_string());
        assert!(matchers_equivalent(&lit("ab"), &lit("ab")));
        assert!(!matchers_equivalent(&lit("ab"), &lit("ac")));
        assert!(matchers_overlap(&lit("ab"), &lit("ab")));
        assert!(!matchers_overlap(&lit("ab"), &lit("b")));

        // DFA for a+ vs literal "a": overlapping but not equivalent.
        use std::collections::BTreeSet as Set;
        let mut accepting = Set::new();
        accepting.insert(1);
        let dfa = vstar_automata::Dfa::new(
            vec!['a'],
            2,
            0,
            accepting,
            [((0, 'a'), 1), ((1, 'a'), 1)].into_iter().collect(),
        );
        let plus = TokenMatcher::Dfa(dfa);
        assert!(matchers_overlap(&plus, &lit("a")));
        assert!(!matchers_equivalent(&plus, &lit("a")));
        assert!(matchers_equivalent(&plus, &plus));
    }

    #[test]
    fn duplicate_pair_matchers_are_flagged() {
        use vstar::{LearnedLanguage, PartialTokenizer, TokenDiscovery, TokenPair};
        use vstar_parser::CompileLearned;

        // A grammar over two marker pairs whose underlying call tokens are the
        // same literal — the tokenizer cannot tell the pairs apart.
        let c0 = vstar::tokenizer::call_marker(0);
        let r0 = vstar::tokenizer::return_marker(0);
        let c1 = vstar::tokenizer::call_marker(1);
        let r1 = vstar::tokenizer::return_marker(1);
        let tagging = vstar_vpl::Tagging::from_pairs([(c0, r0), (c1, r1)]).unwrap();
        let mut b = vstar_vpl::VpgBuilder::new(tagging.clone());
        let s = b.nonterminal("S");
        b.empty_rule(s);
        b.match_rule(s, c0, s, r0, s);
        b.match_rule(s, c1, s, r1, s);
        let vpg = b.build(s).unwrap();

        let lit = |s: &str| TokenMatcher::Literal(s.to_string());
        let mut tokenizer = PartialTokenizer::new();
        tokenizer.push_pair(TokenPair { call: lit("begin"), ret: lit("end") });
        tokenizer.push_pair(TokenPair { call: lit("begin"), ret: lit("stop") });

        let mut vb = vstar_vpl::VpaBuilder::new(tagging);
        let q0 = vb.add_state();
        vb.set_initial(q0);
        vb.add_accepting(q0);
        let vpa = vb.build().unwrap();

        let lang = LearnedLanguage::new(vpa, vpg, tokenizer, TokenDiscovery::Tokens);
        let cg = lang.compile().unwrap();
        let report = analyze_compiled(&cg);
        assert!(report.has("CMP005"), "{:?}", report.diagnostics);
    }
}
