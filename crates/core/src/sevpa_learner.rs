//! The table-based *k*-SEVPA learner (paper §4.2: Algorithms 1–2 and Prop. 4.3).
//!
//! The learner maintains, for each module `i ∈ [0..k]` of the single-entry VPA
//! (module 0 is the base module, module `i ≥ 1` belongs to the `i`-th call symbol),
//! a set of well-matched *access words* `Q_i` and a set of *test words* `C_i`
//! (paper §4.2.2). Two access words are `C_i`-equivalent when all tests agree on
//! them; the observation structure is kept *separable* (no two access words are
//! equivalent) and *closed* (every one-step extension is equivalent to some access
//! word), at which point a hypothesis VPA can be read off (Definition 4.3).
//! Counterexamples from (simulated) equivalence queries are processed with the
//! binary-search analysis of Proposition 4.3.
//!
//! The learner is agnostic to whether the call/return characters are real oracle
//! characters (paper §4) or the artificial markers inserted by `conv_τ` (paper §5):
//! it only sees a [`TaggedAlphabet`] and a membership function over strings in that
//! alphabet.
//!
//! # The observation table
//!
//! Each module keeps its answers in an explicit, lazily filled table: one row per
//! word it has ever compared (access words, one-step extensions, seeded access
//! words and the `q' ‹a q b›` words behind return transitions), indexed by test
//! id. Its invariants:
//!
//! - **Lazy.** A cell is filled the first time a comparison needs it, by exactly
//!   the membership query `prefix · word · suffix` the learner would ask anyway.
//! - **Same order.** A comparison walks the tests in order and asks the access
//!   word's cell before the candidate's, stopping at the first disagreement — so
//!   the membership function sees the same first-time queries in the same order
//!   as with no table at all; every query the table saves would have been a
//!   cache hit of the [`Mat`](crate::Mat).
//! - **Append-only.** Access words and tests are only ever appended (`close`,
//!   `refine`, `seed_observations`), so rows only grow, an answer never changes,
//!   and rows are kept across `close` restarts and counterexample rounds. A
//!   row also remembers its last equivalence scan; while the tests are
//!   unchanged only the access words added since need scanning.

use std::collections::HashMap;

use vstar_vpl::vpa::StackSymId;
use vstar_vpl::{Kind, StateId, Tagging, Vpa, VpaBuilder};

use crate::error::VStarError;

/// The alphabet the learner works over: a tagging giving the call/return characters
/// plus the set of plain characters.
#[derive(Clone, Debug)]
pub struct TaggedAlphabet {
    tagging: Tagging,
    plain: Vec<char>,
}

impl TaggedAlphabet {
    /// Creates an alphabet. Characters of `plain` that are tagged as call/return by
    /// `tagging` are dropped from the plain set.
    #[must_use]
    pub fn new(tagging: Tagging, plain: Vec<char>) -> Self {
        let mut plain: Vec<char> =
            plain.into_iter().filter(|&c| tagging.kind(c) == Kind::Plain).collect();
        plain.sort_unstable();
        plain.dedup();
        TaggedAlphabet { tagging, plain }
    }

    /// The tagging (call/return pairs).
    #[must_use]
    pub fn tagging(&self) -> &Tagging {
        &self.tagging
    }

    /// The plain characters.
    #[must_use]
    pub fn plain(&self) -> &[char] {
        &self.plain
    }

    /// The call characters, in pair order (module `i+1` belongs to the `i`-th pair).
    #[must_use]
    pub fn call_chars(&self) -> Vec<char> {
        self.tagging.call_symbols().collect()
    }

    /// The return characters, in pair order.
    #[must_use]
    pub fn ret_chars(&self) -> Vec<char> {
        self.tagging.return_symbols().collect()
    }
}

/// Maximum number of counterexample rounds before the [`SevpaLearner`] gives up.
const MAX_CE_ROUNDS: usize = 200;

/// Safety bound on the total number of states of the [`SevpaLearner`].
const MAX_STATES: usize = 4000;

/// A test word: a context `(u, v)`; the test of an access word `q` is the
/// membership of `u · q · v`. Module 0 uses contexts with `u = ε`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Test {
    prefix: String,
    suffix: String,
}

/// One row of a module's observation table: a word and its answers under the
/// module's tests, indexed by test id (`None` until first asked).
#[derive(Clone, Debug)]
struct Row {
    word: String,
    answers: Vec<Option<bool>>,
    /// `(access words, tests, result)` of the row's last equivalence scan.
    scanned: Option<(usize, usize, Option<usize>)>,
}

#[derive(Clone, Debug, Default)]
struct Module {
    /// Row ids of the access words, in admission order.
    access: Vec<usize>,
    tests: Vec<Test>,
    rows: Vec<Row>,
    row_ids: HashMap<String, usize>,
}

impl Module {
    /// A module whose only access word is `ε`.
    fn new(tests: Vec<Test>) -> Self {
        let mut module = Module { tests, ..Module::default() };
        let epsilon = module.row(String::new());
        module.access.push(epsilon);
        module
    }

    /// The `idx`-th access word.
    fn word(&self, idx: usize) -> &str {
        &self.rows[self.access[idx]].word
    }

    fn is_access(&self, word: &str) -> bool {
        self.row_ids.get(word).is_some_and(|row| self.access.contains(row))
    }

    /// The row of `word`, created empty on first use.
    fn row(&mut self, word: String) -> usize {
        if let Some(&row) = self.row_ids.get(&word) {
            return row;
        }
        let row = self.rows.len();
        self.rows.push(Row { word: word.clone(), answers: Vec::new(), scanned: None });
        self.row_ids.insert(word, row);
        row
    }

    /// The answer of `row` under test `test`, asked on first use.
    fn answer(&mut self, member: &dyn Fn(&str) -> bool, row: usize, test: usize) -> bool {
        let answers = &self.rows[row].answers;
        if let Some(&Some(answer)) = answers.get(test) {
            return answer;
        }
        let Test { prefix, suffix } = &self.tests[test];
        let answer = member(&format!("{prefix}{}{suffix}", self.rows[row].word));
        let answers = &mut self.rows[row].answers;
        if answers.len() <= test {
            answers.resize(self.tests.len(), None);
        }
        answers[test] = Some(answer);
        answer
    }

    /// Index of the first access word whose answers agree with `row` on every
    /// test. Compares test by test, access word's cell first, stopping at the
    /// first disagreement; a scan only resumes where the row's last scan left
    /// off while the tests are unchanged, since those cells are already known.
    fn find_equivalent(&mut self, member: &dyn Fn(&str) -> bool, row: usize) -> Option<usize> {
        let (access_len, tests_len) = (self.access.len(), self.tests.len());
        let start = match self.rows[row].scanned {
            Some((_, tests, Some(found))) if tests == tests_len => return Some(found),
            Some((scanned, tests, None)) if tests == tests_len => scanned,
            _ => 0,
        };
        let found = (start..access_len).find(|&idx| {
            let access_row = self.access[idx];
            (0..tests_len)
                .all(|t| self.answer(member, access_row, t) == self.answer(member, row, t))
        });
        self.rows[row].scanned = Some((access_len, tests_len, found));
        found
    }
}

/// Seed material for one module of the observation structure: access words and
/// test contexts mined outside the active loop (e.g. from a sample corpus by
/// `vstar-passive`).
#[derive(Clone, Debug, Default)]
pub struct ModuleSeed {
    /// Candidate access words (module-local well-matched words over the
    /// tagged alphabet).
    pub access: Vec<String>,
    /// Candidate test contexts `(prefix, suffix)`; the test of an access word
    /// `q` is the membership of `prefix · q · suffix`.
    pub tests: Vec<(String, String)>,
}

/// A warm-start seed for the whole observation structure, one entry per module
/// (index 0 is the base module, index `i ≥ 1` belongs to the `i`-th call
/// pair). Entries beyond the learner's module count are ignored.
#[derive(Clone, Debug, Default)]
pub struct ObservationSeed {
    /// Per-module seed material.
    pub modules: Vec<ModuleSeed>,
}

impl ObservationSeed {
    /// Returns `true` when the seed carries no access words and no tests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.modules.iter().all(|m| m.access.is_empty() && m.tests.is_empty())
    }

    /// Total number of candidate access words across modules.
    #[must_use]
    pub fn access_words(&self) -> usize {
        self.modules.iter().map(|m| m.access.len()).sum()
    }

    /// Total number of candidate test contexts across modules.
    #[must_use]
    pub fn tests(&self) -> usize {
        self.modules.iter().map(|m| m.tests.len()).sum()
    }
}

/// A hypothesis VPA together with the learner metadata needed to analyse
/// counterexamples (module and access word of each state, contents of each stack
/// symbol).
#[derive(Clone, Debug)]
pub struct Hypothesis {
    /// The hypothesis automaton (over the tagged alphabet).
    pub vpa: Vpa,
    /// For each state: `(module, access word)`.
    pub states: Vec<(usize, String)>,
    /// For each stack symbol: `(state pushed from, call character)`.
    pub stack_syms: Vec<(StateId, char)>,
}

/// Statistics of a completed learning run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LearnerStats {
    /// Number of simulated equivalence queries.
    pub equivalence_queries: usize,
    /// Number of counterexamples processed.
    pub counterexamples: usize,
    /// Number of states of the final hypothesis.
    pub states: usize,
}

/// The table-based k-SEVPA learner.
pub struct SevpaLearner<'a> {
    member: &'a dyn Fn(&str) -> bool,
    alphabet: TaggedAlphabet,
    modules: Vec<Module>,
    stats: LearnerStats,
    /// Decide equivalence by the table-free reference loop instead (tests only).
    #[cfg(test)]
    reference_equivalence: bool,
}

impl<'a> std::fmt::Debug for SevpaLearner<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SevpaLearner")
            .field("modules", &self.modules.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'a> SevpaLearner<'a> {
    /// Creates a learner for the language decided by `member` (a membership function
    /// over strings in the tagged alphabet).
    #[must_use]
    pub fn new(member: &'a dyn Fn(&str) -> bool, alphabet: TaggedAlphabet) -> Self {
        let k = alphabet.tagging().pair_count();
        let ret_chars = alphabet.ret_chars();
        let call_chars = alphabet.call_chars();
        let modules = (0..=k)
            .map(|i| {
                Module::new(if i == 0 {
                    vec![Test { prefix: String::new(), suffix: String::new() }]
                } else {
                    // C_i initialised with (‹a_i, b›) for every return character b›.
                    ret_chars
                        .iter()
                        .map(|&b| Test {
                            prefix: call_chars[i - 1].to_string(),
                            suffix: b.to_string(),
                        })
                        .collect()
                })
            })
            .collect();
        SevpaLearner {
            member,
            alphabet,
            modules,
            stats: LearnerStats::default(),
            #[cfg(test)]
            reference_equivalence: false,
        }
    }

    /// Statistics of the run so far.
    #[must_use]
    pub fn stats(&self) -> LearnerStats {
        self.stats
    }

    /// The alphabet the learner works over.
    #[must_use]
    pub fn alphabet(&self) -> &TaggedAlphabet {
        &self.alphabet
    }

    fn member(&self, s: &str) -> bool {
        (self.member)(s)
    }

    /// The table row of `word` in `module`, and the index of an access word of
    /// the module equivalent to it, if any.
    fn classify(&mut self, module: usize, word: String) -> (usize, Option<usize>) {
        let member = self.member;
        #[cfg(test)]
        if self.reference_equivalence {
            let found = self.find_equivalent_reference(module, &word);
            return (self.modules[module].row(word), found);
        }
        let module = &mut self.modules[module];
        let row = module.row(word);
        (row, module.find_equivalent(member, row))
    }

    /// The equivalence check as it was before the observation table: every
    /// comparison rebuilds both words and asks the membership function again.
    #[cfg(test)]
    fn find_equivalent_reference(&self, module: usize, s: &str) -> Option<usize> {
        let module = &self.modules[module];
        (0..module.access.len()).find(|&idx| {
            module.tests.iter().all(|t| {
                self.member(&format!("{}{}{}", t.prefix, module.word(idx), t.suffix))
                    == self.member(&format!("{}{}{}", t.prefix, s, t.suffix))
            })
        })
    }

    /// The current extension set Σ_M: plain characters plus the nested words
    /// `‹a_i q b›` for every access word `q` of module `i ≥ 1` and return `b›`
    /// (Definition 4.2). Bare call/return symbols are omitted because appending
    /// them cannot produce well-matched access words; their transitions are fixed
    /// by the single-entry structure.
    fn extensions(&self) -> Vec<String> {
        let call_chars = self.alphabet.call_chars();
        let ret_chars = self.alphabet.ret_chars();
        let mut out: Vec<String> = self.alphabet.plain.iter().map(ToString::to_string).collect();
        for (i, module) in self.modules.iter().enumerate().skip(1) {
            for idx in 0..module.access.len() {
                for &b in &ret_chars {
                    out.push(format!("{}{}{b}", call_chars[i - 1], module.word(idx)));
                }
            }
        }
        out
    }

    /// Algorithm 2: extend the access-word sets until the structure is closed.
    fn close(&mut self) {
        let mut states = self.state_count();
        loop {
            let mut added = false;
            let extensions = self.extensions();
            for module_idx in 0..self.modules.len() {
                for q_idx in 0..self.modules[module_idx].access.len() {
                    for m in &extensions {
                        let candidate = format!("{}{m}", self.modules[module_idx].word(q_idx));
                        if let (row, None) = self.classify(module_idx, candidate) {
                            self.modules[module_idx].access.push(row);
                            added = true;
                            states += 1;
                            if states >= MAX_STATES {
                                return;
                            }
                        }
                    }
                }
                if added {
                    break; // recompute extensions: new access words add nested words
                }
            }
            if !added {
                return;
            }
        }
    }

    /// Total number of access words across modules.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.modules.iter().map(|m| m.access.len()).sum()
    }

    /// Definition 4.3: read a hypothesis VPA off the closed, separable structure.
    fn construct_vpa(&mut self) -> Hypothesis {
        let call_chars = self.alphabet.call_chars();
        let ret_chars = self.alphabet.ret_chars();
        let mut builder = VpaBuilder::new(self.alphabet.tagging().clone());

        // States are numbered module by module, access words in admission order.
        let mut offsets = Vec::with_capacity(self.modules.len());
        let mut states: Vec<(usize, String)> = Vec::new();
        for (i, module) in self.modules.iter().enumerate() {
            offsets.push(states.len());
            states.extend((0..module.access.len()).map(|idx| (i, module.word(idx).to_string())));
        }
        let state_id = |module: usize, idx: usize| StateId(offsets[module] + idx);
        builder.add_states(states.len());

        builder.set_initial(state_id(0, 0));
        // Accepting states: module-0 access words that are members. Test 0 of
        // module 0 is the empty context, so its cells are these answers.
        debug_assert!(
            self.modules[0].tests[0] == Test { prefix: String::new(), suffix: String::new() }
        );
        for idx in 0..self.modules[0].access.len() {
            let row = self.modules[0].access[idx];
            if self.modules[0].answer(self.member, row, 0) {
                builder.add_accepting(state_id(0, idx));
            }
        }

        // Call transitions: from every state, on ‹a_j, push (state, ‹a_j) and move to
        // the entry state of module j. One stack symbol per (state, call), numbered
        // state-major.
        let k = call_chars.len();
        let stack_sym = |sid: usize, j: usize| StackSymId(sid * k + j);
        let mut stack_syms: Vec<(StateId, char)> = Vec::with_capacity(states.len() * k);
        for sid in 0..states.len() {
            let from = StateId(sid);
            for (j, &a) in call_chars.iter().enumerate() {
                let gamma = builder.add_stack_symbol();
                debug_assert_eq!(gamma, stack_sym(sid, j));
                stack_syms.push((from, a));
                builder.call(from, a, state_id(j + 1, 0), gamma).expect("valid call transition");
            }
        }

        // Plain transitions inside each module.
        for (sid, (module, q)) in states.iter().enumerate() {
            for c_idx in 0..self.alphabet.plain.len() {
                let c = self.alphabet.plain[c_idx];
                if let (_, Some(target_idx)) = self.classify(*module, format!("{q}{c}")) {
                    builder
                        .plain(StateId(sid), c, state_id(*module, target_idx))
                        .expect("valid plain transition");
                }
            }
        }

        // Return transitions: from a state of module i ≥ 1, on b›, with stack symbol
        // ([q']_j, ‹a_i), move to the module-j state equivalent to q' ‹a_i q b›.
        for (sid, (module_i, q)) in states.iter().enumerate() {
            if *module_i == 0 {
                continue;
            }
            let a_i = call_chars[*module_i - 1];
            for &b in &ret_chars {
                for (push_sid, (module_j, q_prime)) in states.iter().enumerate() {
                    let gamma = stack_sym(push_sid, *module_i - 1);
                    let combined = format!("{q_prime}{a_i}{q}{b}");
                    if let (_, Some(target_idx)) = self.classify(*module_j, combined) {
                        builder
                            .ret(StateId(sid), b, gamma, state_id(*module_j, target_idx))
                            .expect("valid return transition");
                    }
                }
            }
        }

        let vpa = builder.build().expect("hypothesis automaton is well formed");
        self.stats.states = states.len();
        Hypothesis { vpa, states, stack_syms }
    }

    /// The context `(w, w')` of the configuration after reading `idx` symbols of the
    /// counterexample (proof of Proposition 4.3).
    fn context_of(
        &self,
        hyp: &Hypothesis,
        trace_cfg: &vstar_vpl::vpa::Configuration,
        rest: &str,
    ) -> (String, String) {
        let mut prefix = String::new();
        for gamma in &trace_cfg.stack {
            let (push_state, call) = hyp.stack_syms[gamma.0];
            prefix.push_str(&hyp.states[push_state.0].1);
            prefix.push(call);
        }
        (prefix, rest.to_string())
    }

    /// Processes a counterexample (Proposition 4.3). Returns `Ok(true)` if the
    /// observation structure was refined, `Ok(false)` if no refinement was possible
    /// (which indicates the approximate equivalence test produced a spurious
    /// counterexample).
    fn process_counterexample(&mut self, hyp: &Hypothesis, ce: &str) -> Result<bool, VStarError> {
        let tagged = self.alphabet.tagging().tag(ce);
        let chars: Vec<char> = ce.chars().collect();
        let n = chars.len();
        let ce_member = self.member(ce);
        // A member that is not pair-matched cannot be represented under the
        // inferred structure at all. A *non-member* that is not pair-matched
        // is different: the hypothesis can genuinely accept it — acceptance
        // only needs an empty stack, and the constructed return transitions
        // may pop a stack symbol pushed by a different pair's call — and the
        // standard analysis below handles it (the trace completes, the
        // contexts are well defined), refining the observation structure
        // until the cross-pair acceptance is gone. Before counterexample-
        // guided refinement nothing ever surfaced such words, which is why
        // they survived into serving artifacts.
        if ce_member && !self.alphabet.tagging().is_well_matched(ce) {
            return Err(VStarError::IncompatibleCounterexample { counterexample: ce.to_string() });
        }
        let trace = hyp.vpa.trace_tagged(&tagged);
        if !trace.completed() {
            if std::env::var_os("VSTAR_DEBUG_LEARNER").is_some() {
                eprintln!("[learner] trace stuck at {:?} on counterexample {ce:?}", trace.stuck_at);
            }
            // The hypothesis rejects by getting stuck; the counterexample is
            // then a member (or an ill-matched word the strategy should not
            // have sent — strategies only report disagreements, and a stuck
            // trace means the hypothesis rejects). The stuck prefix still
            // gives us refinement information, but the simplest sound
            // treatment is to refine at the stuck position's predecessor via
            // the same analysis on the completed prefix. We fall back to
            // reporting no progress if even that fails.
            return Ok(false);
        }

        let correct = |learner: &Self, idx: usize| -> bool {
            let rest: String = chars[idx..].iter().collect();
            let (w, w_prime) = learner.context_of(hyp, &trace.configs[idx], &rest);
            let state_word = &hyp.states[trace.configs[idx].state.0].1;
            learner.member(&format!("{w}{state_word}{w_prime}")) == ce_member
        };

        debug_assert!(correct(self, 0), "the initial state is always correct");
        if correct(self, n) {
            // The final state agrees with the oracle: spurious counterexample.
            if std::env::var_os("VSTAR_DEBUG_LEARNER").is_some() {
                eprintln!("[learner] final state already correct on counterexample {ce:?}");
            }
            return Ok(false);
        }
        let (mut lo, mut hi) = (0usize, n);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if correct(self, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let i = lo;
        let sym = tagged[i];
        let rest_after: String = chars[i + 1..].iter().collect();
        let (w_next, w_next_suffix) = self.context_of(hyp, &trace.configs[i + 1], &rest_after);
        let state_i = trace.configs[i].state;
        let (module_i, access_i) = hyp.states[state_i.0].clone();

        match sym.kind {
            Kind::Call => {
                // Proposition 4.3 proves s[i+1] cannot be a call symbol; if the
                // approximate tests put us here anyway, report no progress.
                if std::env::var_os("VSTAR_DEBUG_LEARNER").is_some() {
                    eprintln!(
                        "[learner] counterexample analysis landed on a call symbol in {ce:?}"
                    );
                }
                Ok(false)
            }
            Kind::Plain => {
                let new_access = format!("{access_i}{}", sym.ch);
                let progressed = self.refine(module_i, new_access, w_next, w_next_suffix);
                if !progressed && std::env::var_os("VSTAR_DEBUG_LEARNER").is_some() {
                    eprintln!("[learner] plain refinement made no progress on {ce:?}");
                }
                Ok(progressed)
            }
            Kind::Return => {
                let Some(&gamma) = trace.configs[i].stack.last() else {
                    return Ok(false);
                };
                let (push_state, call) = hyp.stack_syms[gamma.0];
                let (module_j, access_push) = hyp.states[push_state.0].clone();
                let new_access = format!("{access_push}{call}{access_i}{}", sym.ch);
                let progressed = self.refine(module_j, new_access, w_next, w_next_suffix);
                if !progressed && std::env::var_os("VSTAR_DEBUG_LEARNER").is_some() {
                    eprintln!("[learner] return refinement made no progress on {ce:?}");
                }
                Ok(progressed)
            }
        }
    }

    /// Adds an access word and a distinguishing test to a module. Returns `true`
    /// if anything new was added.
    fn refine(&mut self, module: usize, access: String, prefix: String, suffix: String) -> bool {
        let test = Test { prefix, suffix };
        let module_ref = &mut self.modules[module];
        let mut added = false;
        if !module_ref.tests.contains(&test) {
            module_ref.tests.push(test);
            added = true;
        }
        if !module_ref.is_access(&access) {
            let row = module_ref.row(access);
            module_ref.access.push(row);
            added = true;
        }
        added
    }

    /// Algorithm 1: learn a VPA using the given (simulated) equivalence query.
    ///
    /// `equivalence` receives the current hypothesis and returns a counterexample —
    /// a string over the tagged alphabet on which the hypothesis and the oracle
    /// disagree — or `None` if no disagreement was found.
    ///
    /// # Errors
    ///
    /// Returns [`VStarError::LearnerDidNotConverge`] if the counterexample budget is
    /// exhausted and [`VStarError::IncompatibleCounterexample`] if a member of the
    /// oracle language is not well matched under the tagging.
    pub fn learn(
        &mut self,
        mut equivalence: impl FnMut(&Hypothesis) -> Option<String>,
    ) -> Result<Hypothesis, VStarError> {
        {
            let _row_fill = vstar_telemetry::span("row-fill");
            self.close();
        }
        for round in 0..MAX_CE_ROUNDS {
            vstar_telemetry::counter("learner.rounds", 1);
            let hypothesis = {
                let _construct = vstar_telemetry::span("hypothesis-construction");
                self.construct_vpa()
            };
            self.observe_hypothesis(round, &hypothesis);
            self.stats.equivalence_queries += 1;
            vstar_telemetry::counter("learner.equivalence_queries", 1);
            let counterexample = {
                let _equivalence = vstar_telemetry::span("pool-equivalence");
                equivalence(&hypothesis)
            };
            match counterexample {
                None => return Ok(hypothesis),
                Some(ce) => {
                    self.stats.counterexamples += 1;
                    vstar_telemetry::counter("learner.counterexamples", 1);
                    let progressed = {
                        let _ce_processing = vstar_telemetry::span("ce-processing");
                        self.process_counterexample(&hypothesis, &ce)?
                    };
                    if !progressed {
                        // Spurious counterexample (an artifact of approximate
                        // equivalence): returning the current hypothesis is the
                        // best we can do.
                        vstar_telemetry::counter("learner.spurious_counterexamples", 1);
                        return Ok(hypothesis);
                    }
                    let _row_fill = vstar_telemetry::span("row-fill");
                    self.close();
                }
            }
        }
        Err(VStarError::LearnerDidNotConverge { rounds: MAX_CE_ROUNDS })
    }

    /// Journals the dimensions of a freshly constructed hypothesis: the
    /// observation-table growth curve (access and test words per round) and
    /// the hypothesis sizes, as deterministic telemetry facts.
    fn observe_hypothesis(&self, round: usize, hypothesis: &Hypothesis) {
        if !vstar_telemetry::enabled() {
            return;
        }
        let access_words: usize = self.modules.iter().map(|m| m.access.len()).sum();
        let test_words: usize = self.modules.iter().map(|m| m.tests.len()).sum();
        vstar_telemetry::record("learner.hypothesis_states", hypothesis.vpa.state_count() as u64);
        vstar_telemetry::event(
            "learner.hypothesis",
            &[
                ("round", round as u64),
                ("states", hypothesis.vpa.state_count() as u64),
                ("stack_symbols", hypothesis.stack_syms.len() as u64),
                ("modules", self.modules.len() as u64),
                ("access_words", access_words as u64),
                ("test_words", test_words as u64),
            ],
        );
    }

    /// Warm-starts the observation structure from corpus-mined material
    /// (hybrid passive/active learning). Tests are installed first; each
    /// candidate access word is then admitted only when no existing access
    /// word of its module is equivalent under the module's tests — the same
    /// separability guard `close` applies to one-step
    /// extensions, so a seeded structure is indistinguishable from one the
    /// active loop grew itself. Returns the number of access words admitted.
    ///
    /// Membership queries issued by the admission checks go through the
    /// learner's membership function and are attributed to VPA learning.
    pub fn seed_observations(&mut self, seed: &ObservationSeed) -> usize {
        for (module_idx, module_seed) in seed.modules.iter().enumerate() {
            if module_idx >= self.modules.len() {
                break;
            }
            for (prefix, suffix) in &module_seed.tests {
                let test = Test { prefix: prefix.clone(), suffix: suffix.clone() };
                if !self.modules[module_idx].tests.contains(&test) {
                    self.modules[module_idx].tests.push(test);
                }
            }
        }
        let mut admitted = 0;
        for (module_idx, module_seed) in seed.modules.iter().enumerate() {
            if module_idx >= self.modules.len() {
                break;
            }
            for access in &module_seed.access {
                if self.state_count() >= MAX_STATES {
                    return admitted;
                }
                if self.modules[module_idx].is_access(access) {
                    continue;
                }
                if let (row, None) = self.classify(module_idx, access.clone()) {
                    self.modules[module_idx].access.push(row);
                    admitted += 1;
                }
            }
        }
        vstar_telemetry::counter("learner.seeded_access_words", admitted as u64);
        admitted
    }

    /// Convenience: learn with equivalence simulated over a fixed pool of test
    /// strings (over the tagged alphabet). Returns the first disagreeing test
    /// string each round.
    ///
    /// # Errors
    ///
    /// See [`SevpaLearner::learn`].
    pub fn learn_with_test_pool(&mut self, pool: &[String]) -> Result<Hypothesis, VStarError> {
        let member = self.member;
        let pool: Vec<String> = pool.to_vec();
        self.learn(move |hyp| {
            pool.iter()
                .find(|s| {
                    let tagged = hyp.vpa.tagging().tag(s);
                    member(s) != hyp.vpa.accepts_tagged(&tagged)
                })
                .cloned()
        })
    }
}

/// Enumerates all strings over the tagged alphabet up to `max_len` and returns those
/// on which `member` and the hypothesis disagree — an exact equivalence check for
/// small bounds, used by tests.
#[must_use]
pub fn exhaustive_disagreement(
    member: &dyn Fn(&str) -> bool,
    hyp: &Hypothesis,
    alphabet: &TaggedAlphabet,
    max_len: usize,
) -> Option<String> {
    let mut symbols: Vec<char> = alphabet.plain().to_vec();
    symbols.extend(alphabet.call_chars());
    symbols.extend(alphabet.ret_chars());
    let mut frontier = vec![String::new()];
    for _ in 0..=max_len {
        for w in &frontier {
            if member(w) != hyp.vpa.accepts(w) {
                return Some(w.clone());
            }
        }
        let mut next = Vec::with_capacity(frontier.len() * symbols.len());
        for w in &frontier {
            if w.chars().count() == max_len {
                continue;
            }
            for &c in &symbols {
                next.push(format!("{w}{c}"));
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn dyck_alphabet() -> TaggedAlphabet {
        TaggedAlphabet::new(Tagging::from_pairs([('(', ')')]).unwrap(), vec!['(', ')', 'x'])
    }

    #[test]
    fn alphabet_filters_tagged_chars_from_plain() {
        let a = dyck_alphabet();
        assert_eq!(a.plain(), ['x']);
        assert_eq!(a.call_chars(), vec!['(']);
        assert_eq!(a.ret_chars(), vec![')']);
    }

    #[test]
    fn learns_dyck_exactly_with_bounded_equivalence() {
        let member: &dyn Fn(&str) -> bool = &dyck;
        let alphabet = dyck_alphabet();
        let mut learner = SevpaLearner::new(member, alphabet.clone());
        let hyp = learner
            .learn(|hyp| exhaustive_disagreement(&dyck, hyp, &alphabet, 6))
            .expect("learning succeeds");
        assert!(exhaustive_disagreement(&dyck, &hyp, &alphabet, 7).is_none());
        assert!(hyp.vpa.accepts("((x)x)"));
        assert!(!hyp.vpa.accepts("((x)"));
        assert!(learner.stats().states >= 1);
    }

    #[test]
    fn learns_depth_language() {
        // { (^k x )^k | k ≥ 0 }: needs a state distinguishing "has seen x".
        fn lang(s: &str) -> bool {
            let chars: Vec<char> = s.chars().collect();
            let opens = chars.iter().take_while(|&&c| c == '(').count();
            if chars.get(opens) != Some(&'x') {
                return false;
            }
            let closes = &chars[opens + 1..];
            closes.len() == opens && closes.iter().all(|&c| c == ')')
        }
        let member: &dyn Fn(&str) -> bool = &lang;
        let alphabet = dyck_alphabet();
        let mut learner = SevpaLearner::new(member, alphabet.clone());
        let hyp = learner
            .learn(|hyp| exhaustive_disagreement(&lang, hyp, &alphabet, 7))
            .expect("learning succeeds");
        assert!(exhaustive_disagreement(&lang, &hyp, &alphabet, 8).is_none());
        assert!(hyp.vpa.accepts("((x))"));
        assert!(!hyp.vpa.accepts("((x)"));
        assert!(!hyp.vpa.accepts("(xx)"));
    }

    #[test]
    fn learns_regular_language_with_empty_tagging() {
        // No call/return pairs at all: the learner degenerates to L* for module 0.
        fn lang(s: &str) -> bool {
            s.chars().all(|c| c == 'a' || c == 'b')
                && s.chars().filter(|&c| c == 'a').count() % 2 == 0
        }
        let member: &dyn Fn(&str) -> bool = &lang;
        let alphabet = TaggedAlphabet::new(Tagging::new(), vec!['a', 'b']);
        let mut learner = SevpaLearner::new(member, alphabet.clone());
        let hyp = learner
            .learn(|hyp| exhaustive_disagreement(&lang, hyp, &alphabet, 6))
            .expect("learning succeeds");
        assert!(exhaustive_disagreement(&lang, &hyp, &alphabet, 7).is_none());
        assert_eq!(hyp.vpa.state_count(), 2);
    }

    /// a D b | c D d | x, where D is the same language (two distinct pairs).
    fn two_pair(s: &str) -> bool {
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

    fn two_pair_alphabet() -> TaggedAlphabet {
        TaggedAlphabet::new(Tagging::from_pairs([('a', 'b'), ('c', 'd')]).unwrap(), vec!['x'])
    }

    #[test]
    fn learns_two_pair_language() {
        let member: &dyn Fn(&str) -> bool = &two_pair;
        let alphabet = two_pair_alphabet();
        let mut learner = SevpaLearner::new(member, alphabet.clone());
        let hyp = learner
            .learn(|hyp| exhaustive_disagreement(&two_pair, hyp, &alphabet, 6))
            .expect("learning succeeds");
        assert!(exhaustive_disagreement(&two_pair, &hyp, &alphabet, 7).is_none());
        assert!(hyp.vpa.accepts("acxdb"));
        assert!(!hyp.vpa.accepts("acxbd"));
    }

    /// The running example of the paper's Figure 1.
    fn fig1(s: &str) -> bool {
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

    /// The paper's preferred tagging {(a,b)} with g, h treated as plain.
    fn fig1_alphabet() -> TaggedAlphabet {
        TaggedAlphabet::new(Tagging::from_pairs([('a', 'b')]).unwrap(), vec!['c', 'd', 'g', 'h'])
    }

    #[test]
    fn fig1_language_is_learned_exactly() {
        let member: &dyn Fn(&str) -> bool = &fig1;
        let alphabet = fig1_alphabet();
        let mut learner = SevpaLearner::new(member, alphabet.clone());
        let hyp = learner
            .learn(|hyp| exhaustive_disagreement(&fig1, hyp, &alphabet, 6))
            .expect("learning succeeds");
        assert!(exhaustive_disagreement(&fig1, &hyp, &alphabet, 7).is_none());
        assert!(hyp.vpa.accepts("agcdcdhbcd"));
        assert!(hyp.vpa.accepts("agaghbhbcd"));
        assert!(!hyp.vpa.accepts("agcd"));
    }

    /// Learns `lang` behind a `Mat` and returns the ordered `Mat` misses, the
    /// number of `Mat` lookups and the hypothesis; `reference` decides
    /// equivalence by the table-free loop instead of the observation table.
    fn learn_behind_mat(
        lang: fn(&str) -> bool,
        alphabet: &TaggedAlphabet,
        max_len: usize,
        reference: bool,
    ) -> (Vec<String>, usize, Hypothesis) {
        let misses = std::cell::RefCell::new(Vec::new());
        let oracle = |s: &str| {
            misses.borrow_mut().push(s.to_string());
            lang(s)
        };
        let mat = crate::Mat::new(&oracle);
        let member = |s: &str| mat.member(s);
        let mut learner = SevpaLearner::new(&member, alphabet.clone());
        learner.reference_equivalence = reference;
        let hyp = learner
            .learn(|hyp| exhaustive_disagreement(&lang, hyp, alphabet, max_len))
            .expect("learning succeeds");
        (misses.take(), mat.total_queries(), hyp)
    }

    fn assert_same_misses_as_reference(
        name: &str,
        lang: fn(&str) -> bool,
        alphabet: &TaggedAlphabet,
    ) {
        let (misses, lookups, hyp) = learn_behind_mat(lang, alphabet, 6, false);
        let (ref_misses, ref_lookups, ref_hyp) = learn_behind_mat(lang, alphabet, 6, true);
        assert!(!misses.is_empty(), "{name}: the learner asked nothing");
        assert_eq!(misses, ref_misses, "{name}: ordered Mat misses");
        assert_eq!(hyp.vpa, ref_hyp.vpa, "{name}: learned automaton");
        assert_eq!(hyp.states, ref_hyp.states, "{name}: states");
        assert_eq!(hyp.stack_syms, ref_hyp.stack_syms, "{name}: stack symbols");
        assert!(lookups < ref_lookups, "{name}: {lookups} lookups vs {ref_lookups}");
    }

    #[test]
    fn observation_table_keeps_the_ordered_miss_sequence() {
        assert_same_misses_as_reference("dyck", dyck, &dyck_alphabet());
        assert_same_misses_as_reference("fig1", fig1, &fig1_alphabet());
        assert_same_misses_as_reference("two-pair", two_pair, &two_pair_alphabet());
    }

    #[test]
    fn seed_observations_admits_only_inequivalent_access_words() {
        let member: &dyn Fn(&str) -> bool = &dyck;
        let alphabet = dyck_alphabet();
        let mut learner = SevpaLearner::new(member, alphabet.clone());
        let seed = ObservationSeed {
            modules: vec![
                ModuleSeed {
                    access: vec!["x".into(), "(x)".into()],
                    tests: vec![(String::new(), String::new())],
                },
                ModuleSeed { access: vec!["x".into()], tests: Vec::new() },
            ],
        };
        assert!(!seed.is_empty());
        assert_eq!(seed.access_words(), 3);
        assert_eq!(seed.tests(), 1);
        // Dyck needs one state per module: every candidate is equivalent to ε,
        // so the separability guard rejects them all — and seeding twice is
        // idempotent.
        assert_eq!(learner.seed_observations(&seed), 0);
        assert_eq!(learner.seed_observations(&seed), 0);
        let hyp = learner
            .learn(|hyp| exhaustive_disagreement(&dyck, hyp, &alphabet, 6))
            .expect("learning succeeds");
        assert!(exhaustive_disagreement(&dyck, &hyp, &alphabet, 7).is_none());
    }

    #[test]
    fn seed_observations_warm_starts_learning() {
        // { (^k x )^k }: "x" is a genuine second module-0 state, so the seed
        // is admitted and the warm-started run still converges exactly.
        fn lang(s: &str) -> bool {
            let chars: Vec<char> = s.chars().collect();
            let opens = chars.iter().take_while(|&&c| c == '(').count();
            if chars.get(opens) != Some(&'x') {
                return false;
            }
            let closes = &chars[opens + 1..];
            closes.len() == opens && closes.iter().all(|&c| c == ')')
        }
        let member: &dyn Fn(&str) -> bool = &lang;
        let alphabet = dyck_alphabet();
        let mut learner = SevpaLearner::new(member, alphabet.clone());
        let seed = ObservationSeed {
            modules: vec![ModuleSeed { access: vec!["x".into()], tests: Vec::new() }],
        };
        assert_eq!(learner.seed_observations(&seed), 1);
        let hyp = learner
            .learn(|hyp| exhaustive_disagreement(&lang, hyp, &alphabet, 7))
            .expect("learning succeeds");
        assert!(exhaustive_disagreement(&lang, &hyp, &alphabet, 8).is_none());
    }

    #[test]
    fn test_pool_equivalence_variant() {
        let member: &dyn Fn(&str) -> bool = &dyck;
        let alphabet = dyck_alphabet();
        let mut learner = SevpaLearner::new(member, alphabet);
        // A pool rich enough to learn Dyck exactly.
        let pool: Vec<String> = vstar_vpl::words::all_strings(&['(', ')', 'x'], 6);
        let hyp = learner.learn_with_test_pool(&pool).expect("learning succeeds");
        for s in &pool {
            assert_eq!(dyck(s), hyp.vpa.accepts(s), "disagreement on {s:?}");
        }
    }

    #[test]
    fn stats_and_debug() {
        let member: &dyn Fn(&str) -> bool = &dyck;
        let alphabet = dyck_alphabet();
        let mut learner = SevpaLearner::new(member, alphabet.clone());
        let _ = learner.learn(|hyp| exhaustive_disagreement(&dyck, hyp, &alphabet, 5)).unwrap();
        assert!(learner.stats().equivalence_queries >= 1);
        assert!(format!("{learner:?}").contains("SevpaLearner"));
    }

    #[test]
    fn incompatible_counterexample_is_reported() {
        // Oracle accepts ")(", which can never be well matched under {((,))}.
        fn lang(s: &str) -> bool {
            s == ")(" || dyck(s)
        }
        let member: &dyn Fn(&str) -> bool = &lang;
        let alphabet = dyck_alphabet();
        let mut learner = SevpaLearner::new(member, alphabet);
        let result = learner.learn(|_| Some(")(".to_string()));
        assert!(matches!(result, Err(VStarError::IncompatibleCounterexample { .. })));
    }
}
