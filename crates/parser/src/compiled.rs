//! Owned, oracle-free compiled grammar artifacts for serving.
//!
//! [`crate::VpgParser`] borrows the grammar and reads converted words only;
//! in token mode, converting a raw input for it
//! ([`LearnedLanguage::convert`]) drags a live [`Mat`](vstar::Mat) membership
//! oracle through tokenization, so a learned grammar cannot be saved, shipped
//! or served from threads without the whole learning stack alive.
//! [`CompiledGrammar`] is the execution-side artifact that removes both
//! constraints:
//!
//! * **The derivative automaton is precompiled.** Following the derivative
//!   parser generator of Jia, Kumar & Tan (OOPSLA 2021), the item sets the
//!   recognizer would rebuild at every position are interned once at compile
//!   time and the `(item set, tagged symbol) → item set` transition function
//!   is materialized into dense lookup tables (return transitions are keyed by
//!   the interned stack symbol pushed at the matching call). The hot path of
//!   [`CompiledGrammar::recognize_word`] is a table index per symbol plus a
//!   `Vec<u32>` push/pop — no per-position allocation, no rule scans.
//! * **Tokenization needs no oracle.** The learning-time `conv_τ` decides
//!   whether a call/return token occurrence is real with k-Repetition
//!   membership queries (paper Algorithm 5): an occurrence that can be
//!   repeated in place without leaving the language is plain text, not a
//!   token. At compile time that decision procedure is *materialized into the
//!   transition tables*: the serving scan runs Algorithm 5's left-to-right
//!   scan, but where the oracle answered a membership query it explores both
//!   readings and lets the automaton decide — an occurrence may be read as a
//!   **token** (the branch dies if the grammar has no use for one here), and
//!   it may be read as **plain text** only when the automaton *loops* on it,
//!   `q ──occ──▶ q₁ ──occ──▶ q₁`, the word-level analog of "`occᵏ` stays
//!   valid for every `k`", i.e. of the k-Repetition membership check. The
//!   input is a member iff some reading drives the automaton to acceptance.
//!   The paper's §5.1 example (`{"{":true}` — a call-token `{` inside a
//!   string literal) tokenizes correctly without a single query, because the
//!   learned string-content rules loop on `{`.
//! * **The raw scan allocates nothing per call.** Token-mode
//!   [`CompiledGrammar::recognize`], [`CompiledGrammar::parse`] and
//!   [`CompiledGrammar::converted_word`] share one scan (and so do sessions,
//!   batches and the `vstar-serve` daemon, which all call `recognize`). The
//!   frontier is a first-in-first-out bucket per input position; the walk's
//!   stack, the characters, hash-consed stack nodes, buckets and visited set
//!   live in a per-thread scratch that every call reuses in place (dropped
//!   again after very large inputs). The scan processes configurations by
//!   ascending position and, within a position, in the order they were
//!   queued. Its configuration budget depends on that order: it admits the
//!   first `MAX_SCAN_CONFIGS` configurations in it, so an input that exhausts
//!   the budget gets the same verdict on every run, and an ambiguous input
//!   the same reading.
//! * **Three tiers, each used only where the one before cannot go on.**
//!   1. *The walk: one configuration, one table.* When the artifact is
//!      assembled, the automaton and the tokenizer are folded into one walk
//!      table with a cell per `(state, ASCII character class)` (derived
//!      data, not part of the file format): the next state of a plain step,
//!      a one-character call or return token taken in place, a fork (both
//!      readings of a one-character token survive, each precomputed), dead,
//!      or a stop where the table cannot decide (a longer token may start).
//!      The scan starts by walking the input's bytes through it before any
//!      scratch set-up, charging one unit of the budget per step as
//!      queueing would. At a stop it matches the candidate token with the
//!      product of the tokenizer's matchers (one DFA, its size capped by
//!      [`MAX_PRODUCT_SIZE`]) and tries both readings; while only one
//!      survives, the walk steps it in place, multi-character tokens
//!      included. It stops where two readings survive (a fork) or at the
//!      first non-ASCII byte.
//!   2. *The lock-step set: up to 8 configurations, still no set-up.* At a
//!      fork of one-character readings the configurations step together,
//!      one position at a time and in queue order, through the same table.
//!      Each keeps its state, its trace and its stack as a prefix of the
//!      walked stack plus up to 4 own symbols packed in a `u64`; they are
//!      deduplicated on state and whole stack and charged to the budget
//!      exactly as the frontier would queue them. A lone survivor goes back
//!      to the walk, an empty set rejects, and at the end of the input the
//!      first accepting configuration in queue order accepts. A round the
//!      set cannot hold (a ninth configuration, a fifth own symbol, a token
//!      longer than one character, a non-ASCII byte) is undone and the set
//!      moves to the frontier.
//!   3. *The frontier: hash-consed stacks, any number of configurations.*
//!      What the set cannot hold, a fork of longer tokens, and the first
//!      non-ASCII character go here, for good: the stacks are interned into
//!      hash-consed nodes, the take traces carry over, and the frontier
//!      resumes at that position without re-scanning. Its configurations
//!      step through the same table; when one is left with nothing queued
//!      ahead, the walk takes it back over the characters. Configurations
//!      are deduplicated by walking their position's short bucket; only a
//!      position that crowds past a few configurations pays for hashing. Its
//!      one limit is the budget: readings that multiply with the nesting
//!      depth exhaust it (plain json arrays nested 19 or more deep are
//!      rejected that way).
//!
//!   Every tier queues the same configurations in the same order as the
//!   frontier alone would, so verdicts, conversions, trees, error spans and
//!   the budget's exhaustion do not depend on where a scan ran.
//!
//! `CompiledGrammar` is `Send + Sync + Clone + 'static`, serializes to a
//! versioned on-disk format ([`CompiledGrammar::save`] /
//! [`CompiledGrammar::load`], see [`crate::artifact`]) and is shared by
//! reference across threads without locks; streamed sessions and batches
//! live in [`crate::serve`]. Compile once with [`CompileLearned::compile`],
//! serve forever.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::ControlFlow;
use std::rc::Rc;

use serde::Serialize;

use vstar::tokenizer::{call_marker, return_marker, TokenKind, TokenMatcher};
use vstar::{LearnedLanguage, PartialTokenizer, TokenDiscovery, VStarResult};
use vstar_automata::Dfa;
use vstar_vpl::{NonterminalId, TaggedChar, Vpg};

use crate::error::ParseError;
use crate::recognizer::RuleTables;
use crate::tree::ParseTree;

/// Sentinel for "no transition" in the dense tables: reading this state (or a
/// dead table entry) rejects.
const DEAD: u32 = u32::MAX;

/// Symbol-kind tag stored in the top two bits of a classified symbol code.
const KIND_PLAIN: u32 = 0;
/// See [`KIND_PLAIN`].
const KIND_CALL: u32 = 1;
/// See [`KIND_PLAIN`].
const KIND_RETURN: u32 = 2;
/// A character the grammar has no rule for; reading it rejects.
const SYM_UNKNOWN: u32 = u32::MAX;

/// Why compiling a grammar into a [`CompiledGrammar`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The reachable item-set automaton exceeded the state budget
    /// (16 384 interned states). The derivative automaton of a
    /// learned VPG is small in practice; hitting this limit means the grammar
    /// is adversarially ambiguous.
    AutomatonTooLarge {
        /// States interned before giving up.
        states: usize,
        /// The configured budget.
        limit: usize,
    },
    /// The tokenizer's matchers folded into one DFA exceeded
    /// [`MAX_PRODUCT_SIZE`]. Learned matchers are small literals and
    /// character classes; a tokenizer this large is hostile or corrupt.
    MatcherTooLarge {
        /// The size budget.
        limit: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::AutomatonTooLarge { states, limit } => write!(
                f,
                "derivative automaton exceeded the state budget ({states} states, limit {limit})"
            ),
            CompileError::MatcherTooLarge { limit } => {
                write!(f, "token matcher product exceeded the size budget (limit {limit})")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The precompiled derivative automaton: interned item-set states and dense
/// `(state, symbol) → state` transition tables.
#[derive(Clone, Debug)]
struct Automaton {
    /// Plain/call/return characters of the grammar, each sorted; a symbol id
    /// is an index into its kind's list.
    plain_chars: Vec<char>,
    call_chars: Vec<char>,
    ret_chars: Vec<char>,
    /// `char → (kind << 30) | id` for ASCII, with a spill map for the rest
    /// (the artificial token markers live in the private use area).
    ascii: Vec<u32>,
    other: FastMap<char, u32>,
    /// Number of interned stack symbols (one per reachable `(state, call)`).
    n_syms: usize,
    start: u32,
    accepting: Vec<bool>,
    /// `[state * n_plain + plain_id] → state` (or [`DEAD`]).
    plain_trans: Vec<u32>,
    /// `[state * n_call + call_id] → (body state, stack symbol)`.
    call_trans: Vec<(u32, u32)>,
    /// `[(state * n_syms + sym) * n_ret + ret_id] → state`.
    ret_trans: Vec<u32>,
}

impl Automaton {
    #[inline]
    fn classify(&self, ch: char) -> u32 {
        let v = ch as u32;
        if v < 128 {
            self.ascii[v as usize]
        } else {
            self.other.get(&ch).copied().unwrap_or(SYM_UNKNOWN)
        }
    }

    #[inline]
    fn plain_step(&self, state: u32, plain_id: u32) -> u32 {
        self.plain_trans[state as usize * self.plain_chars.len() + plain_id as usize]
    }

    #[inline]
    fn call_step(&self, state: u32, call_id: u32) -> (u32, u32) {
        self.call_trans[state as usize * self.call_chars.len() + call_id as usize]
    }

    #[inline]
    fn ret_step(&self, state: u32, sym: u32, ret_id: u32) -> u32 {
        self.ret_trans
            [(state as usize * self.n_syms + sym as usize) * self.ret_chars.len() + ret_id as usize]
    }

    /// Advances one word symbol; returns `false` when the run dies.
    #[inline]
    fn step(&self, state: &mut u32, stack: &mut Vec<u32>, ch: char) -> bool {
        let code = self.classify(ch);
        let id = code & 0x3FFF_FFFF;
        match code >> 30 {
            KIND_PLAIN => {
                *state = self.plain_step(*state, id);
                *state != DEAD
            }
            KIND_CALL => {
                let (body, sym) = self.call_step(*state, id);
                if body == DEAD {
                    return false;
                }
                stack.push(sym);
                *state = body;
                true
            }
            KIND_RETURN => {
                let Some(sym) = stack.pop() else {
                    return false;
                };
                *state = self.ret_step(*state, sym, id);
                *state != DEAD
            }
            _ => false,
        }
    }

    /// The state after reading `c` as plain text from `state` ([`DEAD`]
    /// when `c` is no plain character or the run dies).
    #[inline]
    fn plain_char(&self, state: u32, c: char) -> u32 {
        let code = self.classify(c);
        if code >> 30 == KIND_PLAIN {
            self.plain_step(state, code & 0x3FFF_FFFF)
        } else {
            DEAD
        }
    }

    /// The state after reading `occ` as plain text from `state`, or `None`
    /// when the run dies.
    #[inline]
    fn run_plains(&self, mut state: u32, occ: impl IntoIterator<Item = char>) -> Option<u32> {
        for c in occ {
            state = self.plain_char(state, c);
            if state == DEAD {
                return None;
            }
        }
        Some(state)
    }

    /// The compiled k-Repetition predicate: the occurrence read from `state`
    /// is repeatable-in-place exactly when the automaton loops on it
    /// (`state ──occ──▶ q₁ ──occ──▶ q₁`), in which case `occᵏ` keeps the word
    /// derivable for every `k` — the word-level analog of Algorithm 5's
    /// membership check, answered by the tables alone.
    ///
    /// This is deliberately *narrower* than the oracle check it replaces: a
    /// grammar whose plain reading of `occ` loops only after a pre-period
    /// (`q₁ ──occ──▶ q₂ ──occ──▶ q₂` with `q₁ ≠ q₂`) would be denied the skip
    /// even though pumping stays in the language. Learned string-content
    /// rules loop immediately in practice; `tests/artifacts.rs` pins the
    /// resulting agreement with the oracle-backed path for all five Table-1
    /// languages.
    #[inline]
    fn repeatable(&self, state: u32, occ: impl Iterator<Item = char> + Clone) -> bool {
        let Some(q1) = self.run_plains(state, occ.clone()) else {
            return false;
        };
        self.run_plains(q1, occ) == Some(q1)
    }
}

/// Upper bound on interned item-set states (and so on dense-table size):
/// compilation fails with [`CompileError::AutomatonTooLarge`] beyond it.
const MAX_STATES: usize = 16_384;

// A walk-table cell packs a state into 14 bits.
const _: () = assert!(MAX_STATES <= 1 << 14);

/// Builds the automaton by saturating the reachable `(state, stack top)`
/// configurations (the classic pre*-style closure for pushdown systems):
/// plain and call rows are computed per discovered state; return transitions
/// are computed exactly for the `(body state, stack symbol)` combinations that
/// can actually co-occur at a return.
struct Builder<'t> {
    tables: &'t RuleTables,
    plain_chars: Vec<char>,
    call_chars: Vec<char>,
    ret_chars: Vec<char>,
    states: Vec<Vec<(NonterminalId, NonterminalId)>>,
    state_ix: HashMap<Vec<(NonterminalId, NonterminalId)>, u32>,
    plain_rows: Vec<Vec<u32>>,
    call_rows: Vec<Vec<(u32, u32)>>,
    rows_done: Vec<bool>,
    /// Stack symbols: the `(origin state, call id)` pushed at a call.
    syms: Vec<(u32, u32)>,
    sym_ix: HashMap<(u32, u32), u32>,
    ret_map: HashMap<(u32, u32, u32), u32>,
    max_states: usize,
}

impl<'t> Builder<'t> {
    fn new(tables: &'t RuleTables, vpg: &Vpg, max_states: usize) -> Self {
        let mut plain = BTreeSet::new();
        let mut call = BTreeSet::new();
        let mut ret = BTreeSet::new();
        for nt in 0..vpg.nonterminal_count() {
            let nt = NonterminalId(nt);
            for &(c, _) in tables.linear_alts(nt) {
                plain.insert(c);
            }
            for &(c, _, r, _) in tables.matching_alts(nt) {
                call.insert(c);
                ret.insert(r);
            }
        }
        Builder {
            tables,
            plain_chars: plain.into_iter().collect(),
            call_chars: call.into_iter().collect(),
            ret_chars: ret.into_iter().collect(),
            states: Vec::new(),
            state_ix: HashMap::new(),
            plain_rows: Vec::new(),
            call_rows: Vec::new(),
            rows_done: Vec::new(),
            syms: Vec::new(),
            sym_ix: HashMap::new(),
            ret_map: HashMap::new(),
            max_states,
        }
    }

    fn intern_state(
        &mut self,
        mut items: Vec<(NonterminalId, NonterminalId)>,
    ) -> Result<u32, CompileError> {
        items.sort_unstable();
        items.dedup();
        if let Some(&ix) = self.state_ix.get(&items) {
            return Ok(ix);
        }
        if self.states.len() >= self.max_states {
            return Err(CompileError::AutomatonTooLarge {
                states: self.states.len(),
                limit: self.max_states,
            });
        }
        let ix = self.states.len() as u32;
        self.state_ix.insert(items.clone(), ix);
        self.states.push(items);
        self.plain_rows.push(Vec::new());
        self.call_rows.push(Vec::new());
        self.rows_done.push(false);
        Ok(ix)
    }

    fn intern_sym(&mut self, origin: u32, call_id: u32) -> u32 {
        if let Some(&ix) = self.sym_ix.get(&(origin, call_id)) {
            return ix;
        }
        let ix = self.syms.len() as u32;
        self.sym_ix.insert((origin, call_id), ix);
        self.syms.push((origin, call_id));
        ix
    }

    /// Computes the plain and call rows of `s` on first use.
    fn ensure_rows(&mut self, s: u32) -> Result<(), CompileError> {
        if self.rows_done[s as usize] {
            return Ok(());
        }
        self.rows_done[s as usize] = true;
        let items = self.states[s as usize].clone();
        let mut plain_row = Vec::with_capacity(self.plain_chars.len());
        for i in 0..self.plain_chars.len() {
            let ch = self.plain_chars[i];
            let mut next = Vec::new();
            for &(o, l) in &items {
                for &(c, n) in self.tables.linear_alts(l) {
                    if c == ch {
                        next.push((o, n));
                    }
                }
            }
            plain_row.push(if next.is_empty() { DEAD } else { self.intern_state(next)? });
        }
        let mut call_row = Vec::with_capacity(self.call_chars.len());
        for i in 0..self.call_chars.len() {
            let ch = self.call_chars[i];
            let mut body = Vec::new();
            for &(_, l) in &items {
                for &(c, inner, _, _) in self.tables.matching_alts(l) {
                    if c == ch {
                        body.push((inner, inner));
                    }
                }
            }
            call_row.push(if body.is_empty() {
                (DEAD, 0)
            } else {
                let b = self.intern_state(body)?;
                let sym = self.intern_sym(s, i as u32);
                (b, sym)
            });
        }
        self.plain_rows[s as usize] = plain_row;
        self.call_rows[s as usize] = call_row;
        Ok(())
    }

    /// The state after closing a level: `body` finished in state `s`, the
    /// matching call pushed stack symbol `sym`, and `ret_id` is read.
    fn ret_target(&mut self, s: u32, sym: u32, ret_id: u32) -> Result<u32, CompileError> {
        if let Some(&t) = self.ret_map.get(&(s, sym, ret_id)) {
            return Ok(t);
        }
        let (origin, call_id) = self.syms[sym as usize];
        let call_ch = self.call_chars[call_id as usize];
        let ret_ch = self.ret_chars[ret_id as usize];
        let completed: HashSet<NonterminalId> = self.states[s as usize]
            .iter()
            .filter(|&&(_, m)| self.tables.nullable(m))
            .map(|&(o, _)| o)
            .collect();
        let mut next = Vec::new();
        for &(o, l) in &self.states[origin as usize] {
            for &(c, inner, r, n) in self.tables.matching_alts(l) {
                if c == call_ch && r == ret_ch && completed.contains(&inner) {
                    next.push((o, n));
                }
            }
        }
        let target = if next.is_empty() { DEAD } else { self.intern_state(next)? };
        self.ret_map.insert((s, sym, ret_id), target);
        Ok(target)
    }

    fn build(mut self) -> Result<Automaton, CompileError> {
        let start = self.intern_state(vec![(self.tables.start(), self.tables.start())])?;

        // Saturate reachable (state, top) pairs; `top` encodes the stack top
        // as 0 = bottom-of-stack, sym + 1 otherwise.
        let mut pairs: HashSet<(u32, u32)> = HashSet::new();
        let mut work: Vec<(u32, u32)> = Vec::new();
        let mut belows: Vec<HashSet<u32>> = Vec::new();
        let mut after_ret: Vec<HashSet<u32>> = Vec::new();
        let push = |pairs: &mut HashSet<(u32, u32)>, work: &mut Vec<(u32, u32)>, p: (u32, u32)| {
            if pairs.insert(p) {
                work.push(p);
            }
        };
        push(&mut pairs, &mut work, (start, 0));
        while let Some((s, top)) = work.pop() {
            self.ensure_rows(s)?;
            for p in 0..self.plain_chars.len() {
                let s2 = self.plain_rows[s as usize][p];
                if s2 != DEAD {
                    push(&mut pairs, &mut work, (s2, top));
                }
            }
            for c in 0..self.call_chars.len() {
                let (body, sym) = self.call_rows[s as usize][c];
                if body == DEAD {
                    continue;
                }
                push(&mut pairs, &mut work, (body, sym + 1));
                while belows.len() <= sym as usize {
                    belows.push(HashSet::new());
                    after_ret.push(HashSet::new());
                }
                if belows[sym as usize].insert(top) {
                    let targets: Vec<u32> = after_ret[sym as usize].iter().copied().collect();
                    for t in targets {
                        push(&mut pairs, &mut work, (t, top));
                    }
                }
            }
            if top > 0 {
                let sym = top - 1;
                for r in 0..self.ret_chars.len() {
                    let target = self.ret_target(s, sym, r as u32)?;
                    if target == DEAD {
                        continue;
                    }
                    while after_ret.len() <= sym as usize {
                        belows.push(HashSet::new());
                        after_ret.push(HashSet::new());
                    }
                    if after_ret[sym as usize].insert(target) {
                        let tops: Vec<u32> = belows[sym as usize].iter().copied().collect();
                        for t in tops {
                            push(&mut pairs, &mut work, (target, t));
                        }
                    }
                }
            }
        }

        // Every interned state needs complete rows (states can be interned as
        // targets without ever being popped in a live pair — their rows then
        // stay default; complete them so dense indexing is safe).
        for s in 0..self.states.len() as u32 {
            self.ensure_rows(s)?;
        }

        let n_states = self.states.len();
        let n_plain = self.plain_chars.len();
        let n_call = self.call_chars.len();
        let n_ret = self.ret_chars.len();
        let n_syms = self.syms.len();
        // The dense return table must stay addressable; the state budget keeps
        // n_states bounded, this keeps the product bounded.
        let ret_len = n_states * n_syms.max(1) * n_ret.max(1);
        if ret_len > (1 << 26) {
            return Err(CompileError::AutomatonTooLarge {
                states: n_states,
                limit: self.max_states,
            });
        }

        let mut plain_trans = vec![DEAD; n_states * n_plain];
        let mut call_trans = vec![(DEAD, 0u32); n_states * n_call];
        for s in 0..n_states {
            plain_trans[s * n_plain..(s + 1) * n_plain].copy_from_slice(&self.plain_rows[s]);
            call_trans[s * n_call..(s + 1) * n_call].copy_from_slice(&self.call_rows[s]);
        }
        let mut ret_trans = vec![DEAD; n_states * n_syms * n_ret];
        for (&(s, sym, r), &target) in &self.ret_map {
            if target != DEAD {
                ret_trans[(s as usize * n_syms + sym as usize) * n_ret + r as usize] = target;
            }
        }
        let accepting: Vec<bool> = self
            .states
            .iter()
            .map(|items| items.iter().any(|&(_, m)| self.tables.nullable(m)))
            .collect();

        let mut ascii = vec![SYM_UNKNOWN; 128];
        let mut other = FastMap::default();
        let mut classify = |ch: char, code: u32| {
            let v = ch as u32;
            if v < 128 {
                ascii[v as usize] = code;
            } else {
                other.insert(ch, code);
            }
        };
        for (i, &c) in self.plain_chars.iter().enumerate() {
            classify(c, (KIND_PLAIN << 30) | i as u32);
        }
        for (i, &c) in self.call_chars.iter().enumerate() {
            classify(c, (KIND_CALL << 30) | i as u32);
        }
        for (i, &c) in self.ret_chars.iter().enumerate() {
            classify(c, (KIND_RETURN << 30) | i as u32);
        }

        Ok(Automaton {
            plain_chars: self.plain_chars,
            call_chars: self.call_chars,
            ret_chars: self.ret_chars,
            ascii,
            other,
            n_syms,
            start,
            accepting,
            plain_trans,
            call_trans,
            ret_trans,
        })
    }
}

/// A multiply-rotate hasher (the `FxHash` scheme) for the scan's small
/// integer keys — positions, automaton states, interned stack ids — and for
/// the grammar's own non-ASCII symbols. No key is raw input the caller
/// chooses, so SipHash's flooding resistance buys nothing, and it costs most
/// of a lookup.
#[derive(Clone, Copy, Default)]
struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// The tokenizer's matchers folded into one DFA for the scan. A state is the
/// tuple of the live matchers' states, in pair order (call before return),
/// numbered densely from the start tuple in breadth-first order; a matcher
/// that died, or that can no longer accept, is left out of the tuple. A
/// state is labelled with the first matcher of its tuple that accepts there,
/// so the first labelled state on a run is the learning-time match rule:
/// the shortest match, with the earlier pair, then the call matcher, winning
/// ties. A run stops there, so labelled states have no transitions. Derived
/// from the tokenizer when the artifact is assembled; never persisted.
#[derive(Clone, Debug)]
struct ProductMatcher {
    /// ASCII character → column of `ascii_trans` (0: no matcher reads it).
    class: [u8; 128],
    columns: usize,
    /// `[state * columns + class] → state` (or [`DEAD`]); state 0 is the
    /// start.
    ascii_trans: Vec<u32>,
    /// `((state, char), state)` for non-ASCII characters, sorted.
    other: Vec<((u32, char), u32)>,
    /// `(pair, kind)` of the first matcher accepting in each state.
    label: Vec<Option<(u32, TokenKind)>>,
}

/// Size budget of the product matcher: one unit per transition-table cell,
/// per matcher state listed in a product state and per matcher transition
/// read while building it. Learned tokenizers stay far below it; it bounds
/// the time and memory a hostile artifact can make loading spend.
pub const MAX_PRODUCT_SIZE: usize = 1 << 20;

/// The states of `dfa` reachable from its start that can still reach an
/// accepting state.
fn can_accept(dfa: &Dfa) -> HashSet<usize> {
    let mut preds: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut reached = HashSet::from([dfa.initial()]);
    let mut todo = vec![dfa.initial()];
    while let Some(s) = todo.pop() {
        for &c in dfa.alphabet() {
            if let Some(t) = dfa.delta(s, c) {
                preds.entry(t).or_default().push(s);
                if reached.insert(t) {
                    todo.push(t);
                }
            }
        }
    }
    let mut alive: HashSet<usize> =
        dfa.accepting().iter().copied().filter(|s| reached.contains(s)).collect();
    let mut todo: Vec<usize> = alive.iter().copied().collect();
    while let Some(t) = todo.pop() {
        for &s in preds.get(&t).into_iter().flatten() {
            if alive.insert(s) {
                todo.push(s);
            }
        }
    }
    alive
}

impl ProductMatcher {
    fn new(tokenizer: &PartialTokenizer) -> Result<Self, CompileError> {
        let dfas: Vec<Cow<'_, Dfa>> = tokenizer
            .pairs()
            .iter()
            .flat_map(|p| [&p.call, &p.ret])
            .map(|m| match m {
                TokenMatcher::Literal(lit) => Cow::Owned(Dfa::literal(Vec::new(), lit)),
                TokenMatcher::Dfa(dfa) => Cow::Borrowed(dfa),
            })
            .collect();
        let alive: Vec<HashSet<usize>> = dfas.iter().map(|d| can_accept(d)).collect();
        let alphabet: BTreeSet<char> =
            dfas.iter().flat_map(|d| d.alphabet().iter().copied()).collect();
        let mut class = [0u8; 128];
        let mut columns = 1usize;
        for &c in alphabet.iter().filter(|c| c.is_ascii()) {
            class[c as usize] = columns as u8;
            columns += 1;
        }
        let mut size = 0usize;
        let mut charge = |units: usize| {
            size += units;
            if size > MAX_PRODUCT_SIZE {
                return Err(CompileError::MatcherTooLarge { limit: MAX_PRODUCT_SIZE });
            }
            Ok(())
        };
        let label_of = |live: &[(u32, u32)]| {
            let &(m, _) = live
                .iter()
                .find(|&&(m, s)| dfas[m as usize].accepting().contains(&(s as usize)))?;
            let kind = if m % 2 == 0 { TokenKind::Call } else { TokenKind::Return };
            Some((m / 2, kind))
        };

        // The transitions out of each reached matcher state into states that
        // can still accept, by character (a loaded DFA may list a character
        // twice in its alphabet).
        let mut out: HashMap<(u32, u32), Vec<(char, u32)>> = HashMap::new();
        let transitions = |m: u32, s: u32| {
            let dfa = &dfas[m as usize];
            let mut moves: Vec<(char, u32)> = dfa
                .alphabet()
                .iter()
                .filter_map(|&c| dfa.delta(s as usize, c).map(|t| (c, t)))
                .filter(|(_, t)| alive[m as usize].contains(t))
                .map(|(c, t)| (c, t as u32))
                .collect();
            moves.sort_unstable();
            moves.dedup();
            moves
        };
        // A product state lists its `(matcher, matcher state)` pairs in
        // matcher order. Each tuple is stored once, shared by `index` and
        // `states`. The start is not indexed: a run that returns to its tuple
        // reaches a new state, labelled like any other.
        let start: Rc<[(u32, u32)]> = (0..dfas.len())
            .filter(|&m| alive[m].contains(&dfas[m].initial()))
            .map(|m| (m as u32, dfas[m].initial() as u32))
            .collect();
        charge(start.len())?;
        let mut index: HashMap<Rc<[(u32, u32)]>, u32> = HashMap::new();
        let mut states = vec![start];
        // No token is empty, so the start's own label is never read.
        let mut label = vec![None];
        let mut ascii_trans = Vec::new();
        let mut other = Vec::new();
        let mut from = 0;
        while from < states.len() {
            charge(columns)?;
            let mut row = vec![DEAD; columns];
            if label[from].is_none() {
                let mut moves: BTreeMap<char, Vec<(u32, u32)>> = BTreeMap::new();
                for &(m, s) in states[from].iter() {
                    let steps = out.entry((m, s)).or_insert_with(|| transitions(m, s));
                    charge(steps.len())?;
                    for &(c, t) in steps.iter() {
                        moves.entry(c).or_default().push((m, t));
                    }
                }
                for (c, next) in moves {
                    let to = match index.get(next.as_slice()) {
                        Some(&to) => to,
                        None => {
                            charge(next.len())?;
                            let to = states.len() as u32;
                            let next: Rc<[(u32, u32)]> = next.into();
                            label.push(label_of(&next));
                            index.insert(Rc::clone(&next), to);
                            states.push(next);
                            to
                        }
                    };
                    if c.is_ascii() {
                        row[class[c as usize] as usize] = to;
                    } else {
                        // Ascending `(from, c)`: the list comes out sorted.
                        other.push(((from as u32, c), to));
                    }
                }
            }
            ascii_trans.extend(row);
            from += 1;
        }
        Ok(ProductMatcher { class, columns, ascii_trans, other, label })
    }

    #[inline]
    fn step(&self, state: u32, c: char) -> u32 {
        let v = c as u32;
        if v < 128 {
            self.ascii_trans[state as usize * self.columns + self.class[v as usize] as usize]
        } else {
            match self.other.binary_search_by_key(&(state, c), |&(key, _)| key) {
                Ok(at) => self.other[at].1,
                Err(_) => DEAD,
            }
        }
    }
}

/// Walk-table cell tag of a one-character call token taken in place:
/// `CELL_CALL | state << 16 | stack symbol`. A cell below it is the next
/// state of a plain step.
const CELL_CALL: u32 = 1 << 30;
/// Walk-table cell tag of a one-character return token taken in place:
/// `CELL_RETURN | state before the return marker << 16 | return id`.
const CELL_RETURN: u32 = 2 << 30;
/// Walk-table cell tag of a one-character token whose skip and take may both
/// survive: `CELL_FORK | index` into [`TokenScan::forks`]. [`DEAD`] and
/// [`STOP`] carry this tag too; no index reaches them.
const CELL_FORK: u32 = 3 << 30;
/// Walk-table cell the table alone cannot decide (see [`TokenScan::cells`]).
const STOP: u32 = u32::MAX - 1;

/// The state and the stack symbol or return id packed in a call or return
/// cell of the walk table.
#[inline]
fn unpack(cell: u32) -> (u32, u32) {
    ((cell >> 16) & 0x3FFF, cell & 0xFFFF)
}

/// The tokenizer compiled for the scan (derived from the artifact's
/// tokenizer and automaton when it is assembled; never persisted): the
/// product matcher, the classified codes of each pair's call and return
/// markers, and the walk table.
#[derive(Clone, Debug)]
struct TokenScan {
    matcher: ProductMatcher,
    /// `(call code, return code)` per pair.
    codes: Vec<(u32, u32)>,
    /// ASCII character → column of `cells`. Every character the grammar or
    /// a matcher reads has a column of its own; column 0 holds the rest,
    /// which are dead in every state.
    column: [u8; 128],
    columns: usize,
    /// `[state * columns + column]` → what a configuration does on that
    /// character: the next state of a plain step (also when a token starts
    /// there but only the k-Repetition skip survives); a one-character call
    /// token taken ([`CELL_CALL`]) or return token taken ([`CELL_RETURN`]);
    /// both readings of a one-character token ([`CELL_FORK`]); [`DEAD`]; or
    /// [`STOP`] where the table cannot decide: a longer token may start, or
    /// a packed field does not fit. Non-ASCII characters are [`STOP`] too. At
    /// most 129 columns, so at [`MAX_STATES`] the table holds at most
    /// 2 113 536 cells (8.1 MiB); learned grammars use about one column per
    /// plain character, the size of the plain table.
    cells: Vec<u32>,
    /// `(skip state, take cell)` of each fork cell: the skip's next state,
    /// and the take as a call or return cell. At most one per state and
    /// column whose character is a one-character token.
    forks: Vec<(u32, u32)>,
    /// The one-character token each column's character is, if any.
    single: Vec<Option<Candidate>>,
}

/// How a token occurrence read as a token moves the automaton.
enum Take {
    /// The call marker and then the occurrence: the body state after it and
    /// the stack symbol pushed.
    Call { state: u32, sym: u32 },
    /// The occurrence and then the return marker: the state before the
    /// marker and the return id, to be completed against the stack top.
    Return { before: u32, ret: u32 },
}

impl TokenScan {
    fn new(tokenizer: &PartialTokenizer, auto: &Automaton) -> Result<Self, CompileError> {
        let codes = (0..tokenizer.pairs().len())
            .map(|i| (auto.classify(call_marker(i)), auto.classify(return_marker(i))))
            .collect();
        let matcher = ProductMatcher::new(tokenizer)?;
        let mut column = [0u8; 128];
        let mut reps = vec![None];
        for c in (0..128u8).map(char::from) {
            if auto.classify(c) != SYM_UNKNOWN || matcher.class[c as usize] != 0 {
                column[c as usize] = reps.len() as u8;
                reps.push(Some(c));
            }
        }
        let single = reps
            .iter()
            .map(|rep| {
                let m = matcher.step(0, (*rep)?);
                let (pair, kind) = *matcher.label.get(m as usize)?.as_ref()?;
                Some(Candidate { pair, kind, len: 1 })
            })
            .collect();
        let mut scan = TokenScan {
            matcher,
            codes,
            column,
            columns: reps.len(),
            cells: Vec::new(),
            forks: Vec::new(),
            single,
        };
        let states = auto.accepting.len() as u32;
        let mut cells = Vec::with_capacity(states as usize * reps.len());
        let mut forks = Vec::new();
        for state in 0..states {
            for (col, rep) in reps.iter().enumerate() {
                cells.push(
                    rep.map_or(DEAD, |c| scan.decide(auto, state, c, scan.single[col], &mut forks)),
                );
            }
        }
        (scan.cells, scan.forks) = (cells, forks);
        Ok(scan)
    }

    /// The walk-table cell of `(state, c)`; `single` is the one-character
    /// token `c` is, if any. A fork cell's readings go to `forks`.
    fn decide(
        &self,
        auto: &Automaton,
        state: u32,
        c: char,
        single: Option<Candidate>,
        forks: &mut Vec<(u32, u32)>,
    ) -> u32 {
        if self.matcher.step(0, c) == DEAD {
            return auto.plain_char(state, c);
        }
        let Some(cand) = single else {
            return STOP;
        };
        let occ = std::iter::once(c);
        let take = self.take(auto, state, cand, occ.clone()).map(|take| match take {
            Take::Call { state, sym } if sym < 1 << 16 => Some(CELL_CALL | state << 16 | sym),
            Take::Return { before, ret } if ret < 1 << 16 => Some(CELL_RETURN | before << 16 | ret),
            _ => None,
        });
        match (self.skip(auto, state, c, Some(cand), occ), take) {
            (_, Some(None)) => STOP,
            (Some(skip), Some(Some(take))) => {
                forks.push((skip, take));
                CELL_FORK | (forks.len() - 1) as u32
            }
            (Some(skip), None) => skip,
            (None, Some(Some(take))) => take,
            (None, None) => DEAD,
        }
    }

    /// The walk-table cell of a configuration in `state` reading `c`.
    #[inline]
    fn cell(&self, state: u32, c: char) -> u32 {
        let v = c as u32;
        if v < 128 {
            self.cells[state as usize * self.columns + self.column[v as usize] as usize]
        } else {
            STOP
        }
    }

    /// The skip reading of the character `c` at a position where `cand`
    /// (with occurrence `occ`) is the candidate token: `c` is plain text,
    /// always available where no token starts and gated by the materialized
    /// k-Repetition predicate ([`Automaton::repeatable`]) where one does.
    /// Returns the state after `c`.
    #[inline(always)]
    fn skip(
        &self,
        auto: &Automaton,
        state: u32,
        c: char,
        cand: Option<Candidate>,
        occ: impl Iterator<Item = char> + Clone,
    ) -> Option<u32> {
        if cand.is_some() && !auto.repeatable(state, occ) {
            return None;
        }
        let next = auto.plain_char(state, c);
        (next != DEAD).then_some(next)
    }

    /// The take reading of the candidate token `cand` with occurrence
    /// `occ`: its marker and characters run through the automaton (the
    /// occurrence's characters are the token's plain text, after the call
    /// marker or before the return marker), and the reading dies if they
    /// cannot. A return still has to match the stack top.
    #[inline(always)]
    fn take(
        &self,
        auto: &Automaton,
        state: u32,
        cand: Candidate,
        occ: impl Iterator<Item = char>,
    ) -> Option<Take> {
        let (call_code, ret_code) = self.codes[cand.pair as usize];
        match cand.kind {
            TokenKind::Call => {
                if call_code >> 30 != KIND_CALL {
                    return None;
                }
                let (body, sym) = auto.call_step(state, call_code & 0x3FFF_FFFF);
                if body == DEAD {
                    return None;
                }
                Some(Take::Call { state: auto.run_plains(body, occ)?, sym })
            }
            TokenKind::Return => {
                let before = auto.run_plains(state, occ)?;
                (ret_code >> 30 == KIND_RETURN)
                    .then_some(Take::Return { before, ret: ret_code & 0x3FFF_FFFF })
            }
        }
    }
}

/// One candidate token occurrence at an input position, shared by every
/// tokenization branch (the first/shortest match rule of the learning-time
/// scanner depends only on the input).
#[derive(Copy, Clone, Debug)]
struct Candidate {
    pair: u32,
    kind: TokenKind,
    len: u32,
}

/// The raw input as the scan reads it: its bytes before the frontier is set
/// up (readable up to the first non-ASCII byte, where byte and character
/// indices still agree), its characters after.
trait Text {
    /// Length in characters (bytes for the byte view).
    fn end(&self) -> usize;
    /// The character at `pos`, or `None` where this view cannot decode it.
    fn char_at(&self, pos: usize) -> Option<char>;
    /// The `len` characters from `pos`, all decodable.
    fn occ(&self, pos: usize, len: usize) -> impl Iterator<Item = char> + Clone;
}

impl Text for [u8] {
    fn end(&self) -> usize {
        self.len()
    }

    #[inline]
    fn char_at(&self, pos: usize) -> Option<char> {
        let b = self[pos];
        b.is_ascii().then_some(char::from(b))
    }

    #[inline]
    fn occ(&self, pos: usize, len: usize) -> impl Iterator<Item = char> + Clone {
        self[pos..pos + len].iter().map(|&b| char::from(b))
    }
}

impl Text for [char] {
    fn end(&self) -> usize {
        self.len()
    }

    #[inline]
    fn char_at(&self, pos: usize) -> Option<char> {
        Some(self[pos])
    }

    #[inline]
    fn occ(&self, pos: usize, len: usize) -> impl Iterator<Item = char> + Clone {
        self[pos..pos + len].iter().copied()
    }
}

/// How one reading moves the stack.
#[derive(Copy, Clone, Debug)]
enum StackOp {
    Keep,
    Push(u32),
    Pop,
}

/// One step of a configuration: the state and position after it, how the
/// stack moves, and the token taken (recorded in the trace).
#[derive(Copy, Clone, Debug)]
struct Step {
    state: u32,
    len: u32,
    op: StackOp,
    took: Option<Candidate>,
}

/// The lone configuration the walk steps in place, with the scan's budget.
#[derive(Copy, Clone)]
struct Walk {
    pos: usize,
    state: u32,
    /// Hash-consed stack node under the symbols the walk pushed itself
    /// (0 = empty).
    base: u32,
    trace: u32,
    budget: usize,
    exhausted: bool,
}

impl Walk {
    /// The scan's outcome when the walk ended where it stands, accepting or
    /// not; `at_end` says whether that is the end of the input.
    fn outcome(
        &self,
        accepted: bool,
        at_end: bool,
        traces: &[(u32, u32, Candidate)],
    ) -> ScanOutcome {
        ScanOutcome {
            takes: accepted.then(|| unwind_trace(traces, self.trace)),
            furthest: self.pos,
            reached_end: at_end,
            exhausted: self.exhausted,
            handoffs: 0,
        }
    }
}

/// Most configurations the lock-step set holds (see [`LaneSet`]).
const LOCKSTEP_WIDTH: usize = 8;
/// Most stack symbols a lock-step configuration holds above its prefix of
/// the walked stack, 16 bits each in a `u64`.
const LOCKSTEP_DEPTH: u32 = 4;
// A spilled set fits in one bucket that is deduplicated without hashing.
const _: () = assert!(LOCKSTEP_WIDTH <= LOCAL_DEDUP as usize);

/// A configuration of the lock-step set. Its stack is the first `prefix`
/// symbols of the walked stack (the walk's stack where the set started)
/// with `depth` own symbols above them. The representation is canonical:
/// a symbol pushed on the bare prefix that equals the walked symbol above
/// it extends the prefix instead, so two lanes hold the same stack exactly
/// when `prefix`, `depth` and `own` are equal.
#[derive(Copy, Clone, Debug, Default)]
struct Lane {
    state: u32,
    trace: u32,
    prefix: u32,
    depth: u32,
    /// The own symbols, the top in the lowest 16 bits.
    own: u64,
}

impl Lane {
    /// Whether `self` and `other` are one configuration: the same state and
    /// stack, whatever their traces.
    #[inline]
    fn same(&self, other: &Lane) -> bool {
        (self.state, self.prefix, self.depth, self.own)
            == (other.state, other.prefix, other.depth, other.own)
    }

    /// The stack's top symbol, `None` on an empty stack.
    #[inline]
    fn top(&self, walked: &[u32]) -> Option<u32> {
        if self.depth > 0 {
            Some((self.own & 0xFFFF) as u32)
        } else {
            self.prefix.checked_sub(1).map(|i| walked[i as usize])
        }
    }

    /// The lane after the one-character `step` (its trace unchanged), or
    /// `None` when the set cannot hold the result: a longer step, or a push
    /// onto full own symbols.
    #[inline]
    fn then(mut self, step: &Step, walked: &[u32]) -> Option<Lane> {
        if step.len != 1 {
            return None;
        }
        self.state = step.state;
        match step.op {
            StackOp::Keep => {}
            StackOp::Push(sym) => {
                if self.depth == 0 && walked.get(self.prefix as usize) == Some(&sym) {
                    self.prefix += 1;
                } else if self.depth == LOCKSTEP_DEPTH || sym > 0xFFFF {
                    return None;
                } else {
                    self.own = self.own << 16 | u64::from(sym);
                    self.depth += 1;
                }
            }
            // A pop always has a top: a return without one is dead.
            StackOp::Pop if self.depth > 0 => {
                self.own >>= 16;
                self.depth -= 1;
            }
            StackOp::Pop => self.prefix -= 1,
        }
        Some(self)
    }

    /// The own symbols, bottom first.
    fn own_symbols(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.depth).rev().map(|i| (self.own >> (16 * i) & 0xFFFF) as u32)
    }
}

/// The lock-step set: up to [`LOCKSTEP_WIDTH`] configurations at one
/// position in queue order, with the scan's budget. It queues exactly what
/// the frontier's bucket at that position would hold.
#[derive(Copy, Clone, Debug)]
struct LaneSet {
    lanes: [Lane; LOCKSTEP_WIDTH],
    len: usize,
    budget: usize,
    exhausted: bool,
}

impl LaneSet {
    /// Queues `lane` as [`Frontier::push`] would: not when the set holds
    /// its configuration already or the budget is spent. `None` when the
    /// set is full.
    #[inline]
    fn push(&mut self, lane: Lane) -> Option<()> {
        if self.lanes[..self.len].iter().any(|l| l.same(&lane)) {
            return Some(());
        }
        if self.budget == 0 {
            self.exhausted = true;
            return Some(());
        }
        if self.len == LOCKSTEP_WIDTH {
            return None;
        }
        self.budget -= 1;
        self.lanes[self.len] = lane;
        self.len += 1;
        Some(())
    }

    /// Queues what `next` leads to from `lane` at `pos` as
    /// [`CompiledGrammar::step_bucket`] would: a fork's skip first, then its
    /// take. `None` when the set cannot hold a result.
    #[inline(always)]
    fn queue(
        &mut self,
        lane: Lane,
        next: Next,
        pos: usize,
        walked: &[u32],
        traces: &mut Vec<(u32, u32, Candidate)>,
        want_trace: bool,
    ) -> Option<()> {
        let mut push_step = |set: &mut LaneSet, step: Step| {
            let mut after = lane.then(&step, walked)?;
            after.trace = record_take(traces, want_trace, lane.trace, pos, step.took);
            set.push(after)
        };
        match next {
            Next::Dead => Some(()),
            Next::One(step) => push_step(self, step),
            Next::Two(skip, take) => {
                self.push(Lane { state: skip, ..lane })?;
                push_step(self, take)
            }
        }
    }
}

/// Where the lock-step set ended.
enum Tier {
    /// One configuration is left; the walk takes it back.
    Lone,
    /// The scan ended.
    Done(ScanOutcome),
    /// The set cannot hold its next round: the frontier takes it over.
    Spill(LaneSet),
}

/// "No configuration" link in the frontier's bucket lists.
const NIL: u32 = u32::MAX;

/// One frontier configuration, linked into its position's bucket.
#[derive(Copy, Clone, Debug)]
struct Config {
    state: u32,
    /// Hash-consed stack id (0 = empty).
    stack: u32,
    /// Take-decision trace id (0 = none).
    trace: u32,
    /// The next configuration of the same bucket, or [`NIL`].
    next: u32,
}

/// The scan's working memory, kept per thread and reused by every call: the
/// walk's stack, the input's characters, the hash-consed stack nodes, the
/// frontier and the visited set, and the take-decision traces.
/// [`CompiledGrammar::recognize_word`] borrows the stack too.
#[derive(Default)]
struct ScanScratch {
    /// Stack symbols the walk pushed above its base node.
    stack: Vec<u32>,
    chars: Vec<char>,
    /// Stack nodes `(below, symbol)`; node id `i + 1` is `nodes[i]`.
    nodes: Vec<(u32, u32)>,
    node_ix: FastMap<(u32, u32), u32>,
    /// Take-decision traces `(parent, position, candidate)`; trace id
    /// `i + 1` is `traces[i]`.
    traces: Vec<(u32, u32, Candidate)>,
    frontier: Frontier,
}

/// One position's FIFO list of configurations in the frontier's arena.
#[derive(Copy, Clone, Debug)]
struct Bucket {
    first: u32,
    last: u32,
    len: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { first: NIL, last: NIL, len: 0 };
}

/// Buckets of up to this many configurations are deduplicated by walking
/// their list; a bucket that grows past it moves its configurations into the
/// frontier's hash set, so only a position that crowds pays for hashing.
const LOCAL_DEDUP: u32 = 8;

/// The scan frontier: one FIFO bucket per input position, threaded through a
/// single arena of configurations, plus the visited set of the crowded
/// buckets and the budget.
#[derive(Default)]
struct Frontier {
    configs: Vec<Config>,
    buckets: Vec<Bucket>,
    /// `(position, state, stack)` of every configuration in a bucket of more
    /// than [`LOCAL_DEDUP`] configurations.
    visited: FastSet<(usize, u32, u32)>,
    budget: usize,
    /// Highest position with a queued configuration.
    last: usize,
    /// Whether the budget refused a configuration not seen before.
    exhausted: bool,
}

impl Frontier {
    fn reset(&mut self, positions: usize) {
        self.configs.clear();
        self.buckets.clear();
        self.buckets.resize(positions, Bucket::EMPTY);
        // Clearing wipes every control byte even of an empty table.
        if !self.visited.is_empty() {
            self.visited.clear();
        }
        self.budget = MAX_SCAN_CONFIGS;
        self.last = 0;
        self.exhausted = false;
    }

    /// Whether `(pos, state, stack)` is queued already.
    #[inline]
    fn contains(&self, pos: usize, state: u32, stack: u32) -> bool {
        let bucket = self.buckets[pos];
        if bucket.len > LOCAL_DEDUP {
            return self.visited.contains(&(pos, state, stack));
        }
        let mut at = bucket.first;
        while at != NIL {
            let c = &self.configs[at as usize];
            if c.state == state && c.stack == stack {
                return true;
            }
            at = c.next;
        }
        false
    }

    /// Queues `(pos, state, stack)` at the back of its bucket unless it was
    /// queued before or the budget is spent.
    #[inline]
    fn push(&mut self, pos: usize, state: u32, stack: u32, trace: u32) {
        if self.contains(pos, state, stack) {
            return;
        }
        if self.budget == 0 {
            self.exhausted = true;
            return;
        }
        self.budget -= 1;
        self.place(pos, state, stack, trace);
        let bucket = self.buckets[pos];
        if bucket.len == LOCAL_DEDUP + 1 {
            let mut at = bucket.first;
            while at != NIL {
                let c = self.configs[at as usize];
                self.visited.insert((pos, c.state, c.stack));
                at = c.next;
            }
        } else if bucket.len > LOCAL_DEDUP {
            self.visited.insert((pos, state, stack));
        }
    }

    /// Queues a configuration at the back of `pos`'s bucket without
    /// charging the budget or looking for it in the bucket (a configuration
    /// handed over from the walk or the lock-step set was charged where it
    /// was stepped).
    #[inline]
    fn place(&mut self, pos: usize, state: u32, stack: u32, trace: u32) {
        let ix = self.configs.len() as u32;
        self.configs.push(Config { state, stack, trace, next: NIL });
        let bucket = &mut self.buckets[pos];
        if bucket.first == NIL {
            bucket.first = ix;
        } else {
            self.configs[bucket.last as usize].next = ix;
        }
        bucket.last = ix;
        bucket.len += 1;
        self.last = self.last.max(pos);
    }
}

thread_local! {
    /// The calling thread's scan scratch (see [`CompiledGrammar::scan_tokens`]).
    static SCAN_SCRATCH: RefCell<ScanScratch> = RefCell::default();
}

/// Inputs longer than this many bytes do not leave their buffers in the
/// thread's scan scratch (nor stacks deeper than this many symbols), so one
/// huge input does not pin its memory in a long-lived serving thread.
const SCRATCH_KEEP_CHARS: usize = 1 << 16;

/// Scans that queued more configurations than this do not leave their
/// buffers in the scratch either: clearing a hash set costs time in
/// proportion to its capacity, so one budget-exhausting scan would
/// otherwise slow every later short one.
const SCRATCH_KEEP_CONFIGS: usize = 1 << 12;

/// A compiled, owned, oracle-free serving artifact for one learned grammar.
///
/// See the [module docs](self) for the design. Obtain one with
/// [`CompileLearned::compile`] on a [`LearnedLanguage`] (or
/// [`CompiledGrammar::from_vpg`] for a standalone grammar), then call
/// [`recognize`](CompiledGrammar::recognize) /
/// [`parse`](CompiledGrammar::parse) /
/// [`recognize_batch`](CompiledGrammar::recognize_batch) — none of which need a
/// membership oracle or borrow the learning stack — or persist it with
/// [`save`](CompiledGrammar::save) and serve it later with
/// [`load`](CompiledGrammar::load).
///
/// # Example
///
/// ```
/// use vstar_parser::CompiledGrammar;
/// use vstar_vpl::grammar::figure1_grammar;
///
/// let compiled = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
/// assert!(compiled.recognize("agcdcdhbcd"));
/// let tree = compiled.parse("agcdcdhbcd").unwrap();
/// assert_eq!(tree.yielded(), "agcdcdhbcd");
/// // The artifact is fully owned: ship it to another thread, clone it, keep
/// // it for 'static.
/// std::thread::spawn(move || assert!(compiled.recognize("cd"))).join().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct CompiledGrammar {
    vpg: Vpg,
    tables: RuleTables,
    auto: Automaton,
    tokenizer: PartialTokenizer,
    mode: TokenDiscovery,
    scan: TokenScan,
}

/// Compile-time proof that the artifact is freely shareable across threads.
const _: () = {
    const fn assert_serving_artifact<T: Send + Sync + Clone + 'static>() {}
    assert_serving_artifact::<CompiledGrammar>();
};

/// Read-only access to a [`CompiledGrammar`]'s dense transition tables.
///
/// The automaton representation stays private; this view hands static
/// analyses (the `vstar-analyze` compiled-layer lints) exactly the table
/// geometry and cell contents they need to audit bounds, reachability and
/// stack-symbol liveness. All slices use the layout documented on the
/// accessors; [`TableView::DEAD`] marks the absent transition.
#[derive(Clone, Copy, Debug)]
pub struct TableView<'a> {
    auto: &'a Automaton,
}

impl TableView<'_> {
    /// The sentinel state id meaning "no transition" in every table.
    pub const DEAD: u32 = DEAD;

    /// Number of interned item-set states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.auto.accepting.len()
    }

    /// Number of interned stack symbols.
    #[must_use]
    pub fn stack_symbol_count(&self) -> usize {
        self.auto.n_syms
    }

    /// The start state.
    #[must_use]
    pub fn start(&self) -> u32 {
        self.auto.start
    }

    /// Per-state acceptance flags (`accepting()[state]`).
    #[must_use]
    pub fn accepting(&self) -> &[bool] {
        &self.auto.accepting
    }

    /// The plain characters, sorted; a plain id is an index into this slice.
    #[must_use]
    pub fn plain_chars(&self) -> &[char] {
        &self.auto.plain_chars
    }

    /// The call characters, sorted.
    #[must_use]
    pub fn call_chars(&self) -> &[char] {
        &self.auto.call_chars
    }

    /// The return characters, sorted.
    #[must_use]
    pub fn ret_chars(&self) -> &[char] {
        &self.auto.ret_chars
    }

    /// The plain table: `[state * plain_chars().len() + plain_id] → state`
    /// (or [`TableView::DEAD`]).
    #[must_use]
    pub fn plain_table(&self) -> &[u32] {
        &self.auto.plain_trans
    }

    /// The call table: `[state * call_chars().len() + call_id] →
    /// (body state, pushed stack symbol)` (body [`TableView::DEAD`] when
    /// absent).
    #[must_use]
    pub fn call_table(&self) -> &[(u32, u32)] {
        &self.auto.call_trans
    }

    /// The return table: `[(state * stack_symbol_count() + sym) *
    /// ret_chars().len() + ret_id] → state` (or [`TableView::DEAD`]).
    #[must_use]
    pub fn ret_table(&self) -> &[u32] {
        &self.auto.ret_trans
    }
}

/// A serializable size-and-identity card for one [`CompiledGrammar`]:
/// automaton geometry, alphabet partition, grammar size, and the versioned
/// artifact identity. Everything here is a pure function of the artifact, so
/// the card is safe to commit, diff and expose (the serving daemon's
/// `/grammars` endpoint, the `vstar-analyze` compiled-layer summary).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct GrammarStats {
    /// Interned item-set states of the derivative automaton.
    pub automaton_states: u64,
    /// Interned stack symbols (one per live `(state, call)` pair).
    pub stack_symbols: u64,
    /// Plain characters of the word alphabet.
    pub plain_chars: u64,
    /// Call characters of the word alphabet.
    pub call_chars: u64,
    /// Return characters of the word alphabet.
    pub ret_chars: u64,
    /// Cells of the dense plain transition table (`states × plain_chars`).
    pub plain_table_cells: u64,
    /// Cells of the dense call transition table (`states × call_chars`).
    pub call_table_cells: u64,
    /// Cells of the dense return table (`states × stack_symbols × ret_chars`).
    pub ret_table_cells: u64,
    /// Nonterminals of the source grammar.
    pub nonterminals: u64,
    /// Rules of the source grammar.
    pub rules: u64,
    /// Token pairs of the compiled tokenizer (token-class count; 0 in
    /// character mode unless the tagging itself defines pairs).
    pub token_pairs: u64,
    /// Discovery mode: `"characters"` or `"tokens"`.
    pub mode: String,
    /// On-disk format version the artifact serializes as
    /// ([`crate::ARTIFACT_VERSION`]).
    pub artifact_version: u64,
    /// [`CompiledGrammar::artifact_fingerprint`] as 16 lowercase hex digits.
    pub artifact_hash: String,
}

/// Cap on tokenization configurations explored per input; exceeding it treats
/// the input as rejected (a defensive bound — live configurations are
/// deduplicated on `(position, state, stack)` and die fast in practice). A
/// scan that ends without an accepting branch after the cap refused a
/// configuration counts one `serve.scan_exhausted`.
const MAX_SCAN_CONFIGS: usize = 1 << 17;

/// Outcome of the compiled conversion scan (token mode).
struct ScanOutcome {
    /// `(position, candidate)` take-decisions of an accepting branch, in
    /// input order (`None` when no branch accepts).
    takes: Option<Vec<(usize, Candidate)>>,
    /// Furthest raw character position any branch reached.
    furthest: usize,
    /// Whether some branch consumed the whole input (but did not accept).
    reached_end: bool,
    /// Whether [`MAX_SCAN_CONFIGS`] refused a configuration the scan had not
    /// seen: without an accepting branch, the reject may then be a false one.
    exhausted: bool,
    /// How often the walk left single-configuration mode (a fork, or the
    /// first non-ASCII byte).
    handoffs: u32,
}

impl CompiledGrammar {
    /// Compiles a standalone grammar (character mode: the grammar's own
    /// tagging is the input alphabet).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::AutomatonTooLarge`] when the reachable item-set
    /// automaton exceeds the state budget.
    pub fn from_vpg(vpg: &Vpg) -> Result<Self, CompileError> {
        Self::assemble(
            vpg.clone(),
            PartialTokenizer::from_tagging(vpg.tagging()),
            TokenDiscovery::Characters,
        )
    }

    pub(crate) fn assemble(
        vpg: Vpg,
        tokenizer: PartialTokenizer,
        mode: TokenDiscovery,
    ) -> Result<Self, CompileError> {
        let _compile_span = vstar_telemetry::span("compile");
        let tables = RuleTables::new(&vpg);
        let auto = Builder::new(&tables, &vpg, MAX_STATES).build()?;
        vstar_telemetry::counter("compile.grammars", 1);
        vstar_telemetry::counter("compile.states_interned", auto.accepting.len() as u64);
        vstar_telemetry::counter("compile.stack_symbols", auto.n_syms as u64);
        vstar_telemetry::event(
            "parser.compile",
            &[
                ("states", auto.accepting.len() as u64),
                ("stack_symbols", auto.n_syms as u64),
                ("plain_chars", auto.plain_chars.len() as u64),
                ("call_chars", auto.call_chars.len() as u64),
                ("ret_chars", auto.ret_chars.len() as u64),
                ("nonterminals", vpg.nonterminal_count() as u64),
            ],
        );
        let scan = TokenScan::new(&tokenizer, &auto)?;
        Ok(CompiledGrammar { vpg, tables, auto, tokenizer, mode, scan })
    }

    /// The grammar this artifact was compiled from.
    #[must_use]
    pub fn vpg(&self) -> &Vpg {
        &self.vpg
    }

    /// The compiled tokenizer's pair definitions (single-character literal
    /// pairs in character mode).
    #[must_use]
    pub fn tokenizer(&self) -> &PartialTokenizer {
        &self.tokenizer
    }

    /// The discovery mode the grammar was learned in: decides whether
    /// [`CompiledGrammar::recognize`] tokenizes raw input first.
    #[must_use]
    pub fn mode(&self) -> TokenDiscovery {
        self.mode
    }

    /// The artifact's [`GrammarStats`] card: automaton geometry, grammar
    /// size, and versioned identity (the artifact fingerprint, so two cards
    /// with equal `artifact_hash` describe byte-identical persisted
    /// artifacts).
    #[must_use]
    pub fn stats(&self) -> GrammarStats {
        GrammarStats {
            automaton_states: self.auto.accepting.len() as u64,
            stack_symbols: self.auto.n_syms as u64,
            plain_chars: self.auto.plain_chars.len() as u64,
            call_chars: self.auto.call_chars.len() as u64,
            ret_chars: self.auto.ret_chars.len() as u64,
            plain_table_cells: self.auto.plain_trans.len() as u64,
            call_table_cells: self.auto.call_trans.len() as u64,
            ret_table_cells: self.auto.ret_trans.len() as u64,
            nonterminals: self.vpg.nonterminal_count() as u64,
            rules: self.vpg.rule_count() as u64,
            token_pairs: self.tokenizer.pairs().len() as u64,
            mode: match self.mode {
                TokenDiscovery::Characters => "characters".to_string(),
                TokenDiscovery::Tokens => "tokens".to_string(),
            },
            artifact_version: crate::ARTIFACT_VERSION,
            artifact_hash: format!("{:016x}", self.artifact_fingerprint()),
        }
    }

    /// A read-only view of the dense transition tables, for external audits
    /// (the `vstar-analyze` compiled-layer lints) without exposing the
    /// automaton's representation as API.
    #[must_use]
    pub fn table_view(&self) -> TableView<'_> {
        TableView { auto: &self.auto }
    }

    /// Decides membership of a *word* over the grammar's own alphabet (the
    /// converted word in token mode, the raw string in character mode) with
    /// pure table lookups — the compiled equivalent of
    /// [`crate::VpgParser::recognize`].
    #[must_use]
    pub fn recognize_word(&self, word: &str) -> bool {
        SCAN_SCRATCH.with(|cell| {
            let stack = &mut cell.borrow_mut().stack;
            stack.clear();
            let mut state = self.auto.start;
            let accepted = word.chars().all(|ch| self.auto.step(&mut state, stack, ch))
                && stack.is_empty()
                && self.auto.accepting[state as usize];
            if stack.capacity() > SCRATCH_KEEP_CHARS {
                *stack = Vec::new();
            }
            accepted
        })
    }

    /// Parses a word over the grammar's own alphabet into a derivation (the
    /// compiled equivalent of [`crate::VpgParser::parse`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] locating the failure (word positions; the raw
    /// span is attached since word characters are raw characters here).
    pub fn parse_word(&self, word: &str) -> Result<ParseTree, ParseError> {
        self.tables
            .parse_tagged(&self.vpg.tagging().tag(word))
            .map_err(|e| attach_word_context(e, word))
    }

    /// Decides membership of a raw input string, oracle-free.
    ///
    /// In character mode this is [`CompiledGrammar::recognize_word`]. In token
    /// mode the input is tokenized by the compiled scan (see the
    /// [module docs](self)): the same left-to-right scan as the learning-time
    /// `conv_τ`, with every k-Repetition membership query replaced by
    /// table-lookup runs of the automaton itself.
    #[must_use]
    pub fn recognize(&self, s: &str) -> bool {
        // Per-call attribution only — never per character — so the
        // uninstrumented hot path stays a single atomic load away from the
        // plain table walk.
        if vstar_telemetry::enabled() {
            vstar_telemetry::counter("serve.recognitions", 1);
            vstar_telemetry::record("serve.steps_per_parse", s.chars().count() as u64);
        }
        match self.mode {
            TokenDiscovery::Characters => self.recognize_word(s),
            TokenDiscovery::Tokens => self.scan_tokens(s, false).takes.is_some(),
        }
    }

    /// Parses a raw input string into a derivation of the (converted-word)
    /// grammar, oracle-free. Tree terminals are converted-word characters: in
    /// token mode the artificial markers appear as the call/return terminals
    /// of nest steps, making the inferred nesting explicit.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the raw-input byte span attached. In
    /// character mode the error position indexes the word (= the raw string);
    /// in token mode it indexes the compiled conversion of the input, except
    /// when no tokenization survives at all — then it is the furthest *raw
    /// character* index any reading reached.
    pub fn parse(&self, s: &str) -> Result<ParseTree, ParseError> {
        if vstar_telemetry::enabled() {
            vstar_telemetry::counter("serve.parses", 1);
            vstar_telemetry::record("serve.steps_per_parse", s.chars().count() as u64);
        }
        match self.mode {
            TokenDiscovery::Characters => self.parse_word(s),
            TokenDiscovery::Tokens => {
                let outcome = self.scan_tokens(s, true);
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
                let tagged: Vec<TaggedChar> = self.vpg.tagging().tag(&converted);
                self.tables.parse_tagged(&tagged).map_err(|e| {
                    let raw_char = e
                        .position()
                        .and_then(|p| raw_index.get(p).copied())
                        .unwrap_or_else(|| s.chars().count());
                    e.with_raw_char_context(s, raw_char)
                })
            }
        }
    }

    /// The word the compiled conversion produces for `s` (the oracle-free
    /// counterpart of [`LearnedLanguage::convert`]), or `None` when `s` is
    /// not a member. In character mode members convert to themselves.
    #[must_use]
    pub fn converted_word(&self, s: &str) -> Option<String> {
        match self.mode {
            TokenDiscovery::Characters => self.recognize_word(s).then(|| s.to_string()),
            TokenDiscovery::Tokens => {
                let takes = self.scan_tokens(s, true).takes?;
                Some(build_converted(s, &takes, None))
            }
        }
    }

    /// First/shortest candidate token match at `text[pos..]`, mirroring the
    /// learning-time scanner's match rule (shortest match, earlier pair and
    /// then call before return winning ties): one run of the product matcher
    /// to its first labelled state. `None` when the run needs a character
    /// the text cannot decode.
    #[inline]
    fn first_match<T: Text + ?Sized>(&self, text: &T, pos: usize) -> Option<Option<Candidate>> {
        let matcher = &self.scan.matcher;
        let mut state = 0u32;
        for (len, at) in (1u32..).zip(pos..text.end()) {
            state = matcher.step(state, text.char_at(at)?);
            if state == DEAD {
                return Some(None);
            }
            if let Some((pair, kind)) = matcher.label[state as usize] {
                return Some(Some(Candidate { pair, kind, len }));
            }
        }
        Some(None)
    }

    /// The skip and take readings of the configuration in `state` at `pos`,
    /// where `text` reads `c`, `cand` is the candidate token and `top` the
    /// stack top: which of them survive.
    #[inline(always)]
    fn readings<T: Text + ?Sized>(
        &self,
        text: &T,
        pos: usize,
        c: char,
        state: u32,
        cand: Option<Candidate>,
        top: Option<u32>,
    ) -> Next {
        let occ = |len: u32| text.occ(pos, len as usize);
        let skip = self.scan.skip(&self.auto, state, c, cand, occ(cand.map_or(0, |cd| cd.len)));
        let take = cand.and_then(|cd| {
            let (state, op) = match self.scan.take(&self.auto, state, cd, occ(cd.len))? {
                Take::Call { state, sym } => (state, StackOp::Push(sym)),
                Take::Return { before, ret } => {
                    let after = self.auto.ret_step(before, top?, ret);
                    (after != DEAD).then_some((after, StackOp::Pop))?
                }
            };
            Some(Step { state, len: cd.len, op, took: Some(cd) })
        });
        Next::of(skip, take)
    }

    /// What the configuration in `state` at `pos`, where `text` reads `c`,
    /// does next: one walk-table cell (see [`TokenScan::cells`]) and, where
    /// the table answers [`STOP`], the candidate token (matched once per
    /// position into `cand`) with both readings tried. `top` gives the stack
    /// top. `None` when matching needs a character `text` cannot decode.
    #[inline(always)]
    fn next<T: Text + ?Sized>(
        &self,
        text: &T,
        pos: usize,
        c: char,
        state: u32,
        top: impl FnOnce() -> Option<u32>,
        cand: &mut Option<Option<Candidate>>,
    ) -> Option<Next> {
        let scan = &self.scan;
        let cell = scan.cell(state, c);
        if cell < CELL_CALL {
            return Some(Next::One(Step { state: cell, len: 1, op: StackOp::Keep, took: None }));
        }
        if cell == DEAD {
            return Some(Next::Dead);
        }
        if cell == STOP {
            let cand = match *cand {
                Some(known) => known,
                None => *cand.insert(self.first_match(text, pos)?),
            };
            return Some(self.readings(text, pos, c, state, cand, top()));
        }
        // A one-character token: taken, or forked with its skip.
        let (skip, take) = if cell >> 30 == CELL_FORK >> 30 {
            let (skip, take) = scan.forks[(cell & !CELL_FORK) as usize];
            (Some(skip), take)
        } else {
            (None, cell)
        };
        let took = scan.single[scan.column[c as usize] as usize];
        let (state, op) = if take >> 30 == CELL_CALL >> 30 {
            let (body, sym) = unpack(take);
            (body, StackOp::Push(sym))
        } else {
            let (before, ret) = unpack(take);
            (top().map_or(DEAD, |top| self.auto.ret_step(before, top, ret)), StackOp::Pop)
        };
        let take = (state != DEAD).then_some(Step { state, len: 1, op, took });
        Some(Next::of(skip, take))
    }

    /// Steps the lone configuration `w` in place: the walk-table cells that
    /// decide a step in a tight loop, every other position with
    /// [`CompiledGrammar::walk_step`]. Each step charges one unit of the
    /// budget, as queueing its configuration would. When the walk reaches
    /// the end of the input or dies it returns whether it accepted (see
    /// [`Walk::outcome`]). Where two readings survive, or `text` cannot
    /// decode a character, it stops with the configuration at `w.pos` (the
    /// symbols it pushed still in `stack` above `w.base`) and says why: the
    /// lock-step set or the frontier takes over there. Always inlined, also
    /// where the lock-step set hands a survivor back: its tight loop
    /// compiles best in place, in [`CompiledGrammar::scan_in`].
    #[inline(always)]
    fn walk<T: Text + ?Sized>(
        &self,
        text: &T,
        w: &mut Walk,
        stack: &mut Vec<u32>,
        nodes: &[(u32, u32)],
        traces: &mut Vec<(u32, u32, Candidate)>,
        want_trace: bool,
    ) -> Result<bool, Handoff> {
        loop {
            // One-character steps the table decides, in locals: plain text,
            // and tokens unless their traces are wanted. Each moves one
            // position, so the budget caps how far they may go.
            let (mut state, mut pos) = (w.state, w.pos);
            let stop = text.end().min(w.pos.saturating_add(w.budget));
            while pos < stop {
                let Some(c) = text.char_at(pos) else {
                    break;
                };
                let cell = self.scan.cell(state, c);
                let (packed, field) = unpack(cell);
                if cell < CELL_CALL {
                    state = cell;
                } else if want_trace {
                    break;
                } else if cell >> 30 == CELL_CALL >> 30 {
                    stack.push(field);
                    state = packed;
                } else if cell >> 30 == CELL_RETURN >> 30 {
                    let Some(&top) = stack.last() else {
                        break;
                    };
                    let after = self.auto.ret_step(packed, top, field);
                    if after == DEAD {
                        break;
                    }
                    stack.pop();
                    state = after;
                } else {
                    break;
                }
                pos += 1;
            }
            (w.state, w.budget, w.pos) = (state, w.budget - (pos - w.pos), pos);
            if let ControlFlow::Break(end) =
                self.walk_step(text, w, stack, nodes, traces, want_trace)
            {
                return end;
            }
        }
    }

    /// One step of [`CompiledGrammar::walk`] with
    /// [`CompiledGrammar::next`], or the walk's end. Kept out of line, so
    /// the walk's tight loop holds only what it reads.
    #[inline(never)]
    fn walk_step<T: Text + ?Sized>(
        &self,
        text: &T,
        w: &mut Walk,
        stack: &mut Vec<u32>,
        nodes: &[(u32, u32)],
        traces: &mut Vec<(u32, u32, Candidate)>,
        want_trace: bool,
    ) -> ControlFlow<Result<bool, Handoff>> {
        if w.pos == text.end() {
            let accepted = stack.is_empty() && w.base == 0 && self.auto.accepting[w.state as usize];
            return ControlFlow::Break(Ok(accepted));
        }
        let Some(c) = text.char_at(w.pos) else {
            return ControlFlow::Break(Err(Handoff::Unreadable));
        };
        let top = || match stack.last() {
            Some(&sym) => Some(sym),
            None => (w.base != 0).then(|| nodes[w.base as usize - 1].1),
        };
        let step = match self.next(text, w.pos, c, w.state, top, &mut None) {
            Some(Next::One(step)) => step,
            Some(Next::Dead) => return ControlFlow::Break(Ok(false)),
            Some(Next::Two(skip, take)) => {
                return ControlFlow::Break(Err(Handoff::Fork(skip, take)))
            }
            None => return ControlFlow::Break(Err(Handoff::Unreadable)),
        };
        if w.budget == 0 {
            w.exhausted = true;
            return ControlFlow::Break(Ok(false));
        }
        w.budget -= 1;
        match step.op {
            StackOp::Keep => {}
            StackOp::Push(sym) => stack.push(sym),
            StackOp::Pop => {
                if stack.pop().is_none() {
                    w.base = nodes[w.base as usize - 1].0;
                }
            }
        }
        w.trace = record_take(traces, want_trace, w.trace, w.pos, step.took);
        w.state = step.state;
        w.pos += step.len as usize;
        ControlFlow::Continue(())
    }

    /// The compiled conversion scan: Algorithm 5's left-to-right scan with
    /// the membership oracle materialized into the tables. At a candidate
    /// occurrence the scan explores
    ///
    /// * a **take** branch — the occurrence is a token; its marker and
    ///   characters run through the automaton and the branch dies if they
    ///   cannot (a token the grammar has no use for here is no token), and
    /// * a **skip** branch — the occurrence is plain text — but *only* when
    ///   the occurrence is loop-repeatable ([`Automaton::repeatable`], the
    ///   materialized k-Repetition predicate; e.g. a `{` inside a learned
    ///   string literal). Ungated skips would wander into word-space the
    ///   learner never constrained.
    ///
    /// Positions without a candidate advance one plain character. Branches
    /// are deduplicated on `(position, state, stack)` with hash-consed
    /// stacks; the input is a member iff some branch consumes it into an
    /// accepting configuration. The oracle-backed conversion corresponds to
    /// one decision sequence per position, so whenever its decisions are
    /// take-executable/loop-repeatable here, that run is among the explored
    /// branches. Every configuration's step comes from the walk table where
    /// the table can decide it ([`CompiledGrammar::next`]).
    ///
    /// Configurations are processed by ascending position and, within a
    /// position, in the order they were queued; every branch moves forward,
    /// so a position's bucket is complete when the scan reaches it. The
    /// [`MAX_SCAN_CONFIGS`] budget therefore admits the same configurations
    /// on every run. While one configuration is alone — nothing else queued
    /// at or ahead of its position — it is stepped in place by
    /// [`CompiledGrammar::walk`], first over the input's bytes before any
    /// scratch set-up: the one-position-at-a-time scan would queue exactly
    /// the configurations it steps through, one per step, and no later push
    /// can land behind it. Where two one-character readings survive, the
    /// lock-step set steps up to [`LOCKSTEP_WIDTH`] configurations together
    /// the same way, still before any set-up, and gives a lone survivor
    /// back to the walk. Only what the set cannot hold, a fork of longer
    /// tokens, or a non-ASCII character before the set-up reaches the
    /// frontier (the stacks interned into hash-consed nodes, the traces
    /// kept), which resumes at that position and gives a configuration back
    /// to the walk once it is alone. All working memory comes from
    /// the calling thread's [`ScanScratch`]; `want_trace` records the take
    /// decisions that [`CompiledGrammar::parse`] and
    /// [`CompiledGrammar::converted_word`] need.
    fn scan_tokens(&self, s: &str, want_trace: bool) -> ScanOutcome {
        let outcome = SCAN_SCRATCH.with(|cell| self.scan_in(&mut cell.borrow_mut(), s, want_trace));
        // Only the frontier or a huge input grows the scratch, and only they
        // can exhaust the budget.
        if outcome.handoffs > 0 || s.len() > SCRATCH_KEEP_CHARS {
            settle_scan(&outcome, s);
        }
        outcome
    }

    /// [`CompiledGrammar::scan_tokens`] over explicit scratch buffers.
    fn scan_in(&self, scratch: &mut ScanScratch, s: &str, want_trace: bool) -> ScanOutcome {
        scratch.stack.clear();
        scratch.traces.clear();
        let mut w = Walk {
            pos: 0,
            state: self.auto.start,
            base: 0,
            trace: 0,
            budget: MAX_SCAN_CONFIGS - 1,
            exhausted: false,
        };
        let ScanScratch { stack, traces, .. } = scratch;
        let bytes = s.as_bytes();
        match self.walk(bytes, &mut w, stack, &[], traces, want_trace) {
            Ok(accepted) => w.outcome(accepted, w.pos == bytes.len(), traces),
            Err(handoff) => self.scan_forked(scratch, s, &w, handoff, want_trace),
        }
    }

    /// The rest of [`CompiledGrammar::scan_in`] after the walk over the
    /// bytes handed `w` over. Where two one-character readings survive, the
    /// lock-step set steps them ([`CompiledGrammar::lock_step`]) and gives a
    /// lone survivor back to the walk over the bytes. A round the set cannot
    /// hold, a longer fork or a non-ASCII byte moves the scan to the
    /// frontier for good ([`CompiledGrammar::scan_frontier`]).
    #[cold]
    #[inline(never)]
    fn scan_forked(
        &self,
        scratch: &mut ScanScratch,
        s: &str,
        w: &Walk,
        handoff: Handoff,
        want_trace: bool,
    ) -> ScanOutcome {
        let bytes = s.as_bytes();
        let (mut w, mut handoff, mut handoffs) = (*w, handoff, 1u32);
        let spilled = loop {
            let Handoff::Fork(skip, take) = handoff else {
                break None;
            };
            let ScanScratch { stack, traces, .. } = scratch;
            let at = Lane {
                state: w.state,
                trace: w.trace,
                prefix: stack.len() as u32,
                ..Lane::default()
            };
            let mut set = LaneSet {
                lanes: [Lane::default(); LOCKSTEP_WIDTH],
                len: 0,
                budget: w.budget,
                exhausted: w.exhausted,
            };
            let mark = traces.len();
            if set.queue(at, Next::Two(skip, take), w.pos, stack, traces, want_trace).is_none() {
                traces.truncate(mark);
                break None;
            }
            w.pos += 1;
            match self.lock_step(bytes, &mut w, set, stack, traces, want_trace) {
                Tier::Lone => {}
                Tier::Done(outcome) => return ScanOutcome { handoffs, ..outcome },
                Tier::Spill(set) => break Some(set),
            }
            match self.walk(bytes, &mut w, stack, &[], traces, want_trace) {
                Ok(accepted) => {
                    return ScanOutcome {
                        handoffs,
                        ..w.outcome(accepted, w.pos == bytes.len(), traces)
                    };
                }
                Err(next) => {
                    // A non-ASCII byte only moves the walk to the characters.
                    handoffs += u32::from(matches!(next, Handoff::Fork(..)));
                    handoff = next;
                }
            }
        };
        if vstar_telemetry::enabled() {
            vstar_telemetry::counter("serve.scan_frontier", 1);
        }
        // The scan stopped after an ASCII prefix, so its byte position is a
        // character index.
        scratch.set_up(s);
        let pos = match spilled {
            Some(set) => scratch.take_set(w.pos, &set),
            None => scratch.hand_over(&w, handoff, want_trace),
        };
        self.scan_frontier(scratch, pos, w.pos, handoffs, want_trace)
    }

    /// Steps the lock-step set `set` at `w.pos` one position at a time
    /// through the walk table, its configurations in queue order, each
    /// queued as the frontier would queue it ([`LaneSet::queue`]). `walked`
    /// holds the walked stack the lanes' prefixes refer to. When one
    /// configuration is left it becomes `w`, its stack rebuilt in `walked`,
    /// for the walk to take back; an empty set rejects, and at the end of
    /// the input the first accepting configuration in queue order accepts.
    /// A round the set cannot hold (more than [`LOCKSTEP_WIDTH`]
    /// configurations, more than [`LOCKSTEP_DEPTH`] own symbols, a token
    /// longer than one character, or a non-ASCII byte) is undone and the
    /// set at `w.pos` returned.
    fn lock_step(
        &self,
        text: &[u8],
        w: &mut Walk,
        set: LaneSet,
        walked: &mut Vec<u32>,
        traces: &mut Vec<(u32, u32, Candidate)>,
        want_trace: bool,
    ) -> Tier {
        // The set and the next round's, trading places after every round.
        let mut sets = [set; 2];
        let mut cur = 0;
        loop {
            let [a, b] = &mut sets;
            let (set, next) = if cur == 0 { (a, b) } else { (b, a) };
            let lanes = &set.lanes[..set.len];
            if let [lane] = lanes {
                walked.truncate(lane.prefix as usize);
                walked.extend(lane.own_symbols());
                let (budget, exhausted) = (set.budget, set.exhausted);
                *w =
                    Walk { state: lane.state, base: 0, trace: lane.trace, budget, exhausted, ..*w };
                return Tier::Lone;
            }
            let end = w.pos == text.len();
            if lanes.is_empty() || end {
                let accepting = lanes.iter().find(|l| {
                    l.prefix == 0 && l.depth == 0 && self.auto.accepting[l.state as usize]
                });
                return Tier::Done(ScanOutcome {
                    takes: accepting.map(|l| unwind_trace(traces, l.trace)),
                    // An empty set died on the position before.
                    furthest: w.pos - usize::from(lanes.is_empty()),
                    reached_end: !lanes.is_empty(),
                    exhausted: set.exhausted,
                    handoffs: 0,
                });
            }
            // One round into `next`: plain steps in place, every other step
            // through `next`.
            let (pos, mark) = (w.pos, traces.len());
            (next.len, next.budget, next.exhausted) = (0, set.budget, set.exhausted);
            let mut cand = None;
            let held = text.char_at(pos).is_some_and(|c| {
                set.lanes[..set.len].iter().all(|lane| {
                    let cell = self.scan.cell(lane.state, c);
                    if cell < CELL_CALL {
                        return next.push(Lane { state: cell, ..*lane }).is_some();
                    }
                    let top = || lane.top(walked);
                    self.next(text, pos, c, lane.state, top, &mut cand)
                        .and_then(|step| next.queue(*lane, step, pos, walked, traces, want_trace))
                        .is_some()
                })
            });
            if !held {
                traces.truncate(mark);
                return Tier::Spill(*set);
            }
            cur ^= 1;
            w.pos += 1;
        }
    }

    /// The frontier from `pos` on, where the walk or the lock-step set
    /// handed over ([`ScanScratch::hand_over`], [`ScanScratch::take_set`]);
    /// it gives lone configurations back to the walk over the characters.
    /// `furthest` is the position the scan reached before, and `handoffs`
    /// its handoffs so far.
    #[inline(never)]
    fn scan_frontier(
        &self,
        scratch: &mut ScanScratch,
        mut pos: usize,
        mut furthest: usize,
        mut handoffs: u32,
        want_trace: bool,
    ) -> ScanOutcome {
        let n = scratch.chars.len();
        let mut reached_end = false;
        while pos <= scratch.frontier.last {
            let bucket = scratch.frontier.buckets[pos];
            if bucket.first == NIL {
                pos += 1;
                continue;
            }
            furthest = pos;
            if pos == n {
                if let Some(trace) = self.accepting_trace(scratch, bucket.first) {
                    let takes = Some(unwind_trace(&scratch.traces, trace));
                    let exhausted = scratch.frontier.exhausted;
                    return ScanOutcome { takes, furthest, reached_end: true, exhausted, handoffs };
                }
                reached_end = true;
            } else if bucket.len == 1 && scratch.frontier.last == pos {
                // One configuration is left: the walk takes it back.
                let Config { state, stack: base, trace, .. } =
                    scratch.frontier.configs[bucket.first as usize];
                let (budget, exhausted) = (scratch.frontier.budget, scratch.frontier.exhausted);
                let mut w = Walk { pos, state, base, trace, budget, exhausted };
                let ScanScratch { stack, chars, nodes, traces, .. } = scratch;
                match self.walk(&chars[..], &mut w, stack, nodes, traces, want_trace) {
                    Ok(accepted) => {
                        return ScanOutcome { handoffs, ..w.outcome(accepted, w.pos == n, traces) };
                    }
                    Err(handoff) => {
                        handoffs += 1;
                        furthest = w.pos;
                        pos = scratch.hand_over(&w, handoff, want_trace);
                        continue;
                    }
                }
            } else {
                self.step_bucket(scratch, pos, bucket.first, want_trace);
            }
            pos += 1;
        }
        let exhausted = scratch.frontier.exhausted;
        ScanOutcome { takes: None, furthest, reached_end, exhausted, handoffs }
    }

    /// The trace of the first accepting configuration, in queue order, of
    /// the bucket whose first configuration is `first` at the end of the
    /// input.
    fn accepting_trace(&self, scratch: &ScanScratch, first: u32) -> Option<u32> {
        let mut at = first;
        while at != NIL {
            let Config { state, stack, trace, next } = scratch.frontier.configs[at as usize];
            if stack == 0 && self.auto.accepting[state as usize] {
                return Some(trace);
            }
            at = next;
        }
        None
    }

    /// Queues the next steps of every configuration of the bucket at `pos`
    /// (before the end of the input) whose first configuration is `first`,
    /// in queue order. Kept out of line: inlined into the scan loop next to
    /// the walk, it compiles to markedly slower code.
    #[inline(never)]
    fn step_bucket(&self, scratch: &mut ScanScratch, pos: usize, first: u32, want_trace: bool) {
        let c = scratch.chars[pos];
        let mut cand = None;
        let mut at = first;
        while at != NIL {
            let Config { state, stack: node, trace, next } = scratch.frontier.configs[at as usize];
            at = next;
            let top = || (node != 0).then(|| scratch.nodes[node as usize - 1].1);
            let chars = &scratch.chars[..];
            match self.next(chars, pos, c, state, top, &mut cand) {
                Some(Next::One(step)) => scratch.push_step(pos, node, trace, step, want_trace),
                Some(Next::Two(skip, take)) => {
                    scratch.push_fork(pos, node, trace, skip, take, want_trace)
                }
                Some(Next::Dead) => {}
                None => unreachable!("the frontier reads characters"),
            }
        }
    }
}

/// What a configuration does next (see [`CompiledGrammar::next`]).
enum Next {
    Dead,
    One(Step),
    /// Both readings survive: the skip's next state and the take's step.
    Two(u32, Step),
}

impl Next {
    /// The next step from the readings that survive: the skip's next state
    /// and the take's step.
    #[inline(always)]
    fn of(skip: Option<u32>, take: Option<Step>) -> Next {
        match (skip, take) {
            (Some(skip), Some(take)) => Next::Two(skip, take),
            (Some(skip), None) => {
                Next::One(Step { state: skip, len: 1, op: StackOp::Keep, took: None })
            }
            (None, Some(take)) => Next::One(take),
            (None, None) => Next::Dead,
        }
    }
}

/// After a scan that used the frontier or read a huge input: drops the
/// thread's scratch buffers if they grew too large to keep, and counts the
/// scan's telemetry.
#[cold]
#[inline(never)]
fn settle_scan(outcome: &ScanOutcome, s: &str) {
    SCAN_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if s.len() > SCRATCH_KEEP_CHARS || scratch.frontier.configs.len() > SCRATCH_KEEP_CONFIGS {
            *scratch = ScanScratch::default();
        }
    });
    if vstar_telemetry::enabled() {
        if outcome.exhausted && outcome.takes.is_none() {
            vstar_telemetry::counter("serve.scan_exhausted", 1);
        }
        if outcome.handoffs > 0 {
            vstar_telemetry::counter("serve.scan_handoffs", u64::from(outcome.handoffs));
        }
    }
}

/// Why the walk stopped with its configuration.
enum Handoff {
    /// The text cannot decode a character the walk needs (a non-ASCII
    /// byte): the walk resumes there over the characters.
    Unreadable,
    /// Both readings survive: the skip's next state and the take's step.
    Fork(u32, Step),
}

/// Records the take of `took` at `pos` on trace `trace` when traces are
/// wanted; returns the trace the configuration continues with.
#[inline]
fn record_take(
    traces: &mut Vec<(u32, u32, Candidate)>,
    want_trace: bool,
    trace: u32,
    pos: usize,
    took: Option<Candidate>,
) -> u32 {
    match (want_trace, took) {
        (true, Some(cand)) => {
            traces.push((trace, pos as u32, cand));
            traces.len() as u32
        }
        _ => trace,
    }
}

impl ScanScratch {
    /// Readies the frontier's buffers for `s`.
    fn set_up(&mut self, s: &str) {
        self.chars.clear();
        self.chars.extend(s.chars());
        self.nodes.clear();
        // Clearing wipes every control byte even of an empty table.
        if !self.node_ix.is_empty() {
            self.node_ix.clear();
        }
        self.frontier.reset(self.chars.len() + 1);
    }

    /// The hash-consed stack node of symbol `sym` pushed on node `below`.
    fn intern(&mut self, below: u32, sym: u32) -> u32 {
        let nodes = &mut self.nodes;
        *self.node_ix.entry((below, sym)).or_insert_with(|| {
            nodes.push((below, sym));
            nodes.len() as u32
        })
    }

    /// Queues the configuration `step` leads to from the configuration on
    /// stack node `node` with trace `trace` at `pos`.
    #[inline]
    fn push_step(&mut self, pos: usize, node: u32, trace: u32, step: Step, want_trace: bool) {
        let node = match step.op {
            StackOp::Keep => node,
            StackOp::Push(sym) => self.intern(node, sym),
            StackOp::Pop => self.nodes[node as usize - 1].0,
        };
        let trace = record_take(&mut self.traces, want_trace, trace, pos, step.took);
        self.frontier.push(pos + step.len as usize, step.state, node, trace);
    }

    /// Queues both readings of a fork: the skip first, then the take.
    fn push_fork(
        &mut self,
        pos: usize,
        node: u32,
        trace: u32,
        skip: u32,
        take: Step,
        want_trace: bool,
    ) {
        self.frontier.push(pos + 1, skip, node, trace);
        self.push_step(pos, node, trace, take, want_trace);
    }

    /// Gives the walk's configuration to the frontier where the walk
    /// stopped: the symbols it pushed are interned above its base node and
    /// the budget it has left carries over. At an unreadable position the
    /// configuration is queued there; at a fork both readings are queued.
    /// Returns the position the frontier continues at.
    fn hand_over(&mut self, w: &Walk, handoff: Handoff, want_trace: bool) -> usize {
        let node = self.intern_walked(w.base);
        self.frontier.budget = w.budget;
        self.frontier.exhausted = w.exhausted;
        match handoff {
            Handoff::Unreadable => {
                self.frontier.place(w.pos, w.state, node, w.trace);
                w.pos
            }
            Handoff::Fork(skip, take) => {
                self.push_fork(w.pos, node, w.trace, skip, take, want_trace);
                w.pos + 1
            }
        }
    }

    /// Gives the lock-step set at `pos` to the frontier, its configurations
    /// queued in its order and its budget carried over; the walked stack
    /// its prefixes refer to is in `stack`. Returns `pos`.
    fn take_set(&mut self, pos: usize, set: &LaneSet) -> usize {
        // The nodes were empty, so the walked prefix of length `k` is node `k`.
        self.intern_walked(0);
        for lane in &set.lanes[..set.len] {
            let node = lane.own_symbols().fold(lane.prefix, |node, sym| self.intern(node, sym));
            self.frontier.place(pos, lane.state, node, lane.trace);
        }
        self.frontier.budget = set.budget;
        self.frontier.exhausted = set.exhausted;
        pos
    }

    /// Interns the walk's stack above `base` and empties it; returns its top
    /// node.
    fn intern_walked(&mut self, base: u32) -> u32 {
        let mut node = base;
        for i in 0..self.stack.len() {
            node = self.intern(node, self.stack[i]);
        }
        self.stack.clear();
        node
    }
}

/// Walks a trace chain back to the root, returning `(position, candidate)`
/// take-decisions in input order.
fn unwind_trace(traces: &[(u32, u32, Candidate)], mut id: u32) -> Vec<(usize, Candidate)> {
    let mut takes = Vec::new();
    while id != 0 {
        let (parent, pos, cand) = traces[id as usize - 1];
        takes.push((pos as usize, cand));
        id = parent;
    }
    takes.reverse();
    takes
}

/// Rebuilds the converted word of `s` from the take-decisions of an
/// accepting branch, mirroring `conv_τ`'s marker placement: call markers
/// before the occurrence, return markers after it. With `raw_index`, each
/// converted-word character's raw character index is recorded there.
fn build_converted(
    s: &str,
    takes: &[(usize, Candidate)],
    mut raw_index: Option<&mut Vec<usize>>,
) -> String {
    let mut out = String::with_capacity(s.len() + 3 * takes.len());
    let mut emit = |c: char, raw: usize| {
        out.push(c);
        if let Some(ix) = raw_index.as_deref_mut() {
            ix.push(raw);
        }
    };
    let mut takes = takes.iter().peekable();
    // The take whose occurrence the current character belongs to.
    let mut token: Option<(usize, Candidate)> = None;
    for (i, c) in s.chars().enumerate() {
        if let Some(&&(at, cand)) = takes.peek().filter(|&&&(at, _)| at == i) {
            takes.next();
            token = Some((at, cand));
            if cand.kind == TokenKind::Call {
                emit(call_marker(cand.pair as usize), i);
            }
        }
        emit(c, token.map_or(i, |(at, _)| at));
        if let Some((at, cand)) = token.filter(|&(at, cand)| i + 1 == at + cand.len as usize) {
            if cand.kind == TokenKind::Return {
                emit(return_marker(cand.pair as usize), at + cand.len as usize - 1);
            }
            token = None;
        }
    }
    out
}

/// Attaches raw-input context to a word-level error where word characters are
/// raw characters (character mode and [`CompiledGrammar::parse_word`]).
fn attach_word_context(e: ParseError, word: &str) -> ParseError {
    let pos = e.position().unwrap_or_else(|| word.chars().count());
    e.with_raw_char_context(word, pos)
}

/// Compiling a learned language into its serving artifact.
///
/// This is the `compile()` entry point the serving workflow starts from; it
/// is a trait (rather than an inherent method on [`LearnedLanguage`]) because
/// the artifact lives downstream of the learner crate.
///
/// ```no_run
/// use vstar::{Mat, VStar, VStarConfig};
/// use vstar_parser::CompileLearned;
///
/// let oracle = |s: &str| !s.is_empty();
/// let mat = Mat::new(&oracle);
/// let result = VStar::new(VStarConfig::default())
///     .learn(&mat, &['a'], &["a".to_string()])
///     .unwrap();
/// let compiled = result.as_learned_language().compile().unwrap();
/// drop((mat, result)); // the artifact outlives the whole learning stack
/// assert!(compiled.recognize("a"));
/// ```
pub trait CompileLearned {
    /// Compiles the learned artifacts into an owned, oracle-free
    /// [`CompiledGrammar`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::AutomatonTooLarge`] when the reachable
    /// item-set automaton exceeds the state budget, and
    /// [`CompileError::MatcherTooLarge`] when the tokenizer's product matcher
    /// does.
    fn compile(&self) -> Result<CompiledGrammar, CompileError>;
}

impl CompileLearned for LearnedLanguage {
    fn compile(&self) -> Result<CompiledGrammar, CompileError> {
        CompiledGrammar::assemble(self.vpg().clone(), self.tokenizer().clone(), self.mode())
    }
}

impl CompileLearned for VStarResult {
    fn compile(&self) -> Result<CompiledGrammar, CompileError> {
        self.as_learned_language().compile()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use vstar::tokenizer::{call_marker, return_marker};
    use vstar::{Mat, VStar, VStarConfig};
    use vstar_vpl::grammar::figure1_grammar;
    use vstar_vpl::{Tagging, VpgBuilder};

    use crate::VpgParser;

    #[test]
    fn figure1_compiled_agrees_with_uncompiled_exhaustively() {
        let g = figure1_grammar();
        let compiled = CompiledGrammar::from_vpg(&g).unwrap();
        let parser = VpgParser::new(&g);
        let terminals: Vec<char> = g.terminals().into_iter().collect();
        for w in vstar_vpl::words::all_strings(&terminals, 6) {
            assert_eq!(compiled.recognize(&w), parser.recognize(&w), "mismatch on {w:?}");
            assert_eq!(compiled.recognize_word(&w), parser.recognize(&w), "word on {w:?}");
            match (compiled.parse(&w), parser.parse(&w)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "trees differ on {w:?}"),
                (Err(a), Err(b)) => {
                    assert_eq!(a.kind(), b.kind(), "error kinds differ on {w:?}");
                    assert_eq!(a.position(), b.position(), "positions differ on {w:?}");
                }
                (a, b) => panic!("parse verdicts differ on {w:?}: {a:?} vs {b:?}"),
            }
        }
        assert!(compiled.table_view().state_count() > 0);
    }

    #[test]
    fn unknown_characters_reject() {
        let g = figure1_grammar();
        let compiled = CompiledGrammar::from_vpg(&g).unwrap();
        assert!(!compiled.recognize("agc?dhb"));
        assert!(!compiled.recognize("μ"));
        let e = compiled.parse("cμ").unwrap_err();
        assert!(e.raw_span().is_some());
    }

    #[test]
    fn deep_nesting_runs_iteratively() {
        let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
        let mut b = VpgBuilder::new(tagging);
        let s = b.nonterminal("S");
        b.match_rule(s, '(', s, ')', s);
        b.empty_rule(s);
        b.linear_rule(s, 'x', s);
        let g = b.build(s).unwrap();
        let compiled = CompiledGrammar::from_vpg(&g).unwrap();
        let deep = 100_000usize;
        let w = format!("{}x{}", "(".repeat(deep), ")".repeat(deep));
        assert!(compiled.recognize(&w));
        assert!(!compiled.recognize(&w[..w.len() - 1]));
        let tree = compiled.parse(&w).unwrap();
        assert_eq!(tree.depth(), deep);
    }

    #[test]
    fn compiled_errors_carry_raw_spans() {
        let g = figure1_grammar();
        let compiled = CompiledGrammar::from_vpg(&g).unwrap();
        let e = compiled.parse("cx").unwrap_err();
        assert_eq!(e.position(), Some(1));
        assert_eq!(e.raw_span(), Some((1, 2)));
        assert_eq!(e.fragment(), Some("x"));
        assert!(e.to_string().contains("near \"x\""), "{e}");
    }

    /// The paper's §5.1 k-Repetition example, oracle-free: `{` is a call
    /// token, yet its occurrence inside a string literal is plain text. The
    /// grammar below derives exactly `⊳{ " {* " : t } ⊲` — the compiled scan
    /// must skip the inner brace (the string-content rules loop on it, so the
    /// materialized k-Repetition predicate fires) where a greedy tokenizer
    /// would die, without issuing a single membership query.
    #[test]
    fn compiled_scan_resolves_tokens_inside_strings() {
        let call = call_marker(0);
        let ret = return_marker(0);
        let tagging = Tagging::from_pairs([(call, ret)]).unwrap();
        let mut b = VpgBuilder::new(tagging);
        let s = b.nonterminal("S");
        let body = b.nonterminal("B");
        let key = b.nonterminal("K");
        let key_rest = b.nonterminal("KR");
        let colon = b.nonterminal("C");
        let val = b.nonterminal("V");
        let close = b.nonterminal("Z");
        let end = b.nonterminal("E");
        b.match_rule(s, call, body, ret, end);
        b.linear_rule(body, '{', key);
        b.linear_rule(key, '"', key_rest);
        b.linear_rule(key_rest, '{', key_rest);
        b.linear_rule(key_rest, '"', colon);
        b.linear_rule(colon, ':', val);
        b.linear_rule(val, 't', close);
        b.linear_rule(close, '}', end);
        b.empty_rule(end);
        let g = b.build(s).unwrap();

        let mut tokenizer = PartialTokenizer::new();
        tokenizer.push_pair(vstar::TokenPair {
            call: TokenMatcher::Literal("{".to_string()),
            ret: TokenMatcher::Literal("}".to_string()),
        });
        let compiled = CompiledGrammar::assemble(g, tokenizer, TokenDiscovery::Tokens).unwrap();

        // The inner `{` occurrences must be skipped, the outer pair taken.
        for member in ["{\"\":t}", "{\"{\":t}", "{\"{{{\":t}"] {
            assert!(compiled.recognize(member), "rejected member {member:?}");
            let converted = compiled.converted_word(member).unwrap();
            assert!(converted.starts_with(call));
            assert!(converted.ends_with(ret));
            let tree = compiled.parse(member).unwrap();
            assert_eq!(tree.yielded(), converted);
            assert!(tree.validate(compiled.vpg()));
        }
        for non_member in ["{\"{\":t", "\"{\":t}", "{{\"\":t}", "{\"\":t}}"] {
            assert!(!compiled.recognize(non_member), "accepted {non_member:?}");
            let e = compiled.parse(non_member).unwrap_err();
            assert!(e.raw_span().is_some(), "{non_member:?}: {e:?}");
        }
    }

    #[test]
    fn compiled_learned_dyck_agrees_with_oracle_path() {
        let dyck = |s: &str| {
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
        let mat = Mat::new(&dyck);
        let result = VStar::new(VStarConfig::default())
            .learn(&mat, &['(', ')', 'x'], &["(x(x))x".to_string(), "()".to_string()])
            .unwrap();
        let learned = result.as_learned_language();
        let compiled = learned.compile().unwrap();
        assert_eq!(compiled.mode(), TokenDiscovery::Tokens);
        let mut extra = 0usize;
        for w in vstar_vpl::words::all_strings(&['(', ')', 'x'], 6) {
            // The oracle-backed path (the learned VPA on the raw word) decides
            // Dyck exactly; `learned::tests` checks the uncompiled reference
            // parser against it.
            let oracle_path = learned.accepts(&mat, &w);
            assert_eq!(oracle_path, dyck(&w), "learned VPA on {w:?}");
            let compiled_verdict = compiled.recognize(&w);
            // The compiled scan explores every oracle decision sequence whose
            // takes execute and whose skips loop, so it accepts a superset of
            // the oracle-backed path; the few extra acceptances mirror
            // off-image words the learned VPA itself (wrongly) accepts, e.g.
            // ⊳(()⊲ for "(()" — a hypothesis imperfection the equivalence
            // pool never probed, not a compilation artifact.
            if oracle_path {
                assert!(compiled_verdict, "compiled rejects oracle-path member {w:?}");
                let converted = compiled.converted_word(&w).unwrap();
                assert_eq!(learned.strip(&converted), w);
                let tree = compiled.parse(&w).unwrap();
                assert!(tree.validate(compiled.vpg()));
            } else if compiled_verdict {
                let converted = compiled.converted_word(&w).unwrap();
                assert!(
                    learned.vpg().accepts(&converted),
                    "compiled accepted {w:?} without a grammar-backed conversion"
                );
                extra += 1;
            }
        }
        // Every extra acceptance above was proven grammar-backed; the
        // over-acceptance stays a small fraction of the probed words (~8% for
        // this deliberately small learning configuration — the Table-1
        // grammars show none, see tests/artifacts.rs) and the canonical junk
        // shapes die.
        assert!(extra * 4 < 1093, "compiled over-accepts {extra} of 1093 words");
        assert!(!compiled.recognize("))"));
        assert!(!compiled.recognize(")("));
        assert!(compiled.recognize("()"));
        assert!(compiled.recognize("(x(x))x"));
        // compile() also works straight off the pipeline result.
        let again = result.compile().unwrap();
        assert_eq!(again.table_view().state_count(), compiled.table_view().state_count());
    }

    #[test]
    fn parse_errors_map_back_to_raw_byte_spans() {
        // Token mode with multi-character tokens: the artificial markers and
        // the 3-character `<p>` token shift converted-word positions well away
        // from raw positions, so the error must carry the raw byte span.
        let lang = vstar_oracles::ToyXml::new();
        let oracle = |s: &str| vstar_oracles::Language::accepts(&lang, s);
        let mat = Mat::new(&oracle);
        let compiled = VStar::new(VStarConfig::default())
            .learn(
                &mat,
                &vstar_oracles::Language::alphabet(&lang),
                &vstar_oracles::Language::seeds(&lang),
            )
            .expect("toy xml learns")
            .compile()
            .unwrap();
        assert_eq!(compiled.mode(), TokenDiscovery::Tokens);

        // Sanity: members parse.
        assert!(compiled.parse("<p>ab</p>").is_ok());

        // "<p>ab!cd</p>": '!' is nowhere in the language. The raw byte span
        // must point exactly at the '!' (byte 5) and Display must show it.
        let err = compiled.parse("<p>ab!cd</p>").unwrap_err();
        assert_eq!(err.raw_span(), Some((5, 6)), "{err:?}");
        assert!(err.fragment().unwrap().starts_with('!'), "{err:?}");
        assert!(err.to_string().contains("raw input bytes 5..6"), "{err}");

        // An unclosed element: the span points into the raw input, not past
        // the marker-widened converted word.
        let err = compiled.parse("<p>ab").unwrap_err();
        let (start, end) = err.raw_span().expect("raw span attached");
        assert!(start <= "<p>ab".len() && end <= "<p>ab".len(), "{err:?}");
    }

    #[test]
    fn stats_card_matches_tables_and_fingerprint() {
        let g = figure1_grammar();
        let compiled = CompiledGrammar::from_vpg(&g).unwrap();
        let stats = compiled.stats();
        let view = compiled.table_view();
        assert_eq!(stats.automaton_states, view.state_count() as u64);
        assert_eq!(stats.stack_symbols, view.stack_symbol_count() as u64);
        assert_eq!(stats.plain_table_cells, view.plain_table().len() as u64);
        assert_eq!(stats.call_table_cells, view.call_table().len() as u64);
        assert_eq!(stats.ret_table_cells, view.ret_table().len() as u64);
        assert_eq!(stats.plain_table_cells, stats.automaton_states * stats.plain_chars);
        assert_eq!(
            stats.ret_table_cells,
            stats.automaton_states * stats.stack_symbols * stats.ret_chars
        );
        assert_eq!(stats.nonterminals, g.nonterminal_count() as u64);
        assert_eq!(stats.rules, g.rule_count() as u64);
        assert_eq!(stats.mode, "characters");
        assert_eq!(stats.artifact_version, crate::ARTIFACT_VERSION);
        assert_eq!(stats.artifact_hash, format!("{:016x}", compiled.artifact_fingerprint()));
        assert_eq!(stats.artifact_hash.len(), 16);
        // The fingerprint is stable across serialization round trips and
        // across clones, and distinguishes different grammars.
        let reloaded = CompiledGrammar::from_json(&compiled.to_json()).unwrap();
        assert_eq!(reloaded.stats(), stats);
        let other = {
            let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
            let mut b = VpgBuilder::new(tagging);
            let s = b.nonterminal("S");
            b.match_rule(s, '(', s, ')', s);
            b.empty_rule(s);
            CompiledGrammar::from_vpg(&b.build(s).unwrap()).unwrap()
        };
        assert_ne!(other.stats().artifact_hash, stats.artifact_hash);
    }

    #[test]
    fn state_budget_is_enforced() {
        let g = figure1_grammar();
        let tables = RuleTables::new(&g);
        let err = Builder::new(&tables, &g, 1).build().unwrap_err();
        assert!(matches!(err, CompileError::AutomatonTooLarge { limit: 1, .. }));
        assert!(err.to_string().contains("state budget"));
    }

    #[test]
    fn empty_tokenizer_degenerates_to_plain_scan() {
        // A regular language learned with zero token pairs: the scan has no
        // decision points and must behave like a plain DFA run.
        let tagging = Tagging::new();
        let mut b = VpgBuilder::new(tagging);
        let s = b.nonterminal("S");
        let odd = b.nonterminal("O");
        b.linear_rule(s, 'a', odd);
        b.linear_rule(odd, 'a', s);
        b.empty_rule(s);
        let g = b.build(s).unwrap();
        let compiled =
            CompiledGrammar::assemble(g, PartialTokenizer::new(), TokenDiscovery::Tokens).unwrap();
        assert!(compiled.recognize(""));
        assert!(!compiled.recognize("a"));
        assert!(compiled.recognize("aa"));
        assert!(!compiled.recognize("ab"));
    }
}
