//! Serving entry points of a [`CompiledGrammar`]: incremental sessions and
//! batches.
//!
//! Every entry point decides membership of the *raw input* with
//! [`CompiledGrammar::recognize`], so one-shot calls, batches and streamed
//! sessions give the same verdict on the same bytes.
//!
//! * [`Session`] is an incremental recognizer: feed it input as it arrives
//!   ([`Session::push_bytes`] / [`Session::push_str`]) and ask for the verdict
//!   at the end ([`Session::finish`]). A session buffers the bytes pushed
//!   since the last [`Session::reset`] (the buffer is reused across resets,
//!   so long-lived serving loops allocate nothing per input after warm-up)
//!   and `finish` runs `recognize` on them. Chunks may split UTF-8 sequences
//!   anywhere: only the whole buffer is decoded.
//! * [`SessionState`] is the owned, `'static` form of the same buffer for
//!   callers that cannot hold a borrow of the grammar across await points or
//!   registry swaps (the `vstar-serve` daemon pins each connection's state to
//!   an `Arc`-held artifact). The grammar is passed where it is used, at
//!   [`SessionState::finish`].
//! * [`CompiledGrammar::recognize_batch`] decides a batch in order on the
//!   calling thread, so every input reuses that thread's warm scan scratch
//!   and is counted by its telemetry collector.

use crate::compiled::CompiledGrammar;

/// The owned state of one incremental recognition: the raw bytes pushed since
/// the last [`SessionState::reset`] — everything a [`Session`] holds except
/// the grammar borrow.
///
/// The state holds no grammar data, so any grammar can finish it; the
/// `vstar-serve` daemon still finishes each state with the artifact version
/// its stream pinned, even across hot reloads.
#[derive(Clone, Debug, Default)]
pub struct SessionState {
    buf: Vec<u8>,
}

impl SessionState {
    /// A fresh state holding the empty input.
    #[must_use]
    pub fn new() -> Self {
        SessionState::default()
    }

    /// Appends a chunk of bytes. Chunks may split multi-byte characters
    /// anywhere; UTF-8 validity is decided once, at
    /// [`SessionState::finish`].
    ///
    /// Telemetry is attributed per call (`serve.bytes_pushed`), never per
    /// byte — with no collector installed the cost is one relaxed atomic
    /// load.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        vstar_telemetry::counter("serve.bytes_pushed", bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a chunk of characters.
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// The verdict for everything pushed so far:
    /// [`CompiledGrammar::recognize`] on the buffered bytes, and `false` when
    /// they are not UTF-8 (invalid bytes, or a dangling partial character).
    /// Does not consume the state — more input may be pushed afterwards.
    ///
    /// With a telemetry collector installed, each call counts one finished
    /// input (`serve.words_finished` / `serve.words_accepted`).
    #[must_use]
    pub fn finish(&self, grammar: &CompiledGrammar) -> bool {
        let accepted = std::str::from_utf8(&self.buf).is_ok_and(|s| grammar.recognize(s));
        if vstar_telemetry::enabled() {
            vstar_telemetry::counter("serve.words_finished", 1);
            if accepted {
                vstar_telemetry::counter("serve.words_accepted", 1);
            }
        }
        accepted
    }

    /// Rewinds to the empty input, keeping the buffer's capacity (so a reused
    /// state allocates nothing per input once warmed up).
    pub fn reset(&mut self) {
        self.buf.clear();
    }
}

/// An incremental, resumable recognizer over one [`CompiledGrammar`]: a
/// [`SessionState`] bundled with the grammar borrow that finishes it.
///
/// A session decides the raw input, exactly as [`CompiledGrammar::recognize`]
/// does: token-mode grammars tokenize the fed bytes at
/// [`Session::finish`].
///
/// # Example
///
/// ```
/// use vstar_parser::CompiledGrammar;
/// use vstar_vpl::grammar::figure1_grammar;
///
/// let compiled = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
/// let mut session = compiled.session();
/// session.push_str("agcd");
/// session.push_str("cdhbcd");
/// assert!(session.finish());
/// session.reset();
/// session.push_bytes(b"ag");
/// assert!(!session.finish()); // the call is still open
/// ```
#[derive(Clone, Debug)]
pub struct Session<'c> {
    grammar: &'c CompiledGrammar,
    state: SessionState,
}

impl Session<'_> {
    /// Feeds a chunk of UTF-8 bytes (see [`SessionState::push_bytes`]).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.state.push_bytes(bytes);
    }

    /// Feeds a chunk of characters.
    pub fn push_str(&mut self, s: &str) {
        self.state.push_str(s);
    }

    /// The verdict for everything pushed so far (see
    /// [`SessionState::finish`]).
    #[must_use]
    pub fn finish(&self) -> bool {
        self.state.finish(self.grammar)
    }

    /// Rewinds to the empty input, keeping the buffer (so a reused session
    /// allocates nothing per input once warmed up).
    pub fn reset(&mut self) {
        self.state.reset();
    }
}

impl CompiledGrammar {
    /// Starts an incremental raw-input recognition [`Session`].
    #[must_use]
    pub fn session(&self) -> Session<'_> {
        Session { grammar: self, state: SessionState::new() }
    }

    /// Decides membership of every input with
    /// [`CompiledGrammar::recognize`]. Verdicts come back in input order.
    #[must_use]
    pub fn recognize_batch(&self, inputs: &[&str]) -> Vec<bool> {
        inputs.iter().map(|s| self.recognize(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstar_vpl::grammar::figure1_grammar;

    #[test]
    fn session_agrees_with_whole_string_recognition() {
        let g = figure1_grammar();
        let compiled = CompiledGrammar::from_vpg(&g).unwrap();
        let terminals: Vec<char> = g.terminals().into_iter().collect();
        let mut session = compiled.session();
        for w in vstar_vpl::words::all_strings(&terminals, 5) {
            session.reset();
            for b in w.as_bytes() {
                session.push_bytes(std::slice::from_ref(b));
            }
            assert_eq!(session.finish(), compiled.recognize_word(&w), "mismatch on {w:?}");
        }
    }

    #[test]
    fn owned_state_matches_borrowing_session() {
        let g = figure1_grammar();
        let compiled = CompiledGrammar::from_vpg(&g).unwrap();
        let terminals: Vec<char> = g.terminals().into_iter().collect();
        let mut state = SessionState::new();
        for w in vstar_vpl::words::all_strings(&terminals, 4) {
            state.reset();
            state.push_str(&w);
            assert_eq!(state.finish(&compiled), compiled.recognize_word(&w), "mismatch on {w:?}");
        }
        // The owned state carries no grammar borrow: it outlives scopes a
        // Session cannot, and keeps its verdict when moved.
        state.reset();
        state.push_str("agcdcdhbcd");
        let moved: SessionState = { state };
        assert!(moved.finish(&compiled));
    }

    #[test]
    fn session_handles_split_multibyte_characters() {
        // Build a grammar whose word alphabet contains multi-byte characters
        // (the artificial markers of token mode are 3-byte UTF-8).
        use vstar_vpl::{Tagging, VpgBuilder};
        let call = vstar::tokenizer::call_marker(0);
        let ret = vstar::tokenizer::return_marker(0);
        let tagging = Tagging::from_pairs([(call, ret)]).unwrap();
        let mut b = VpgBuilder::new(tagging);
        let s = b.nonterminal("S");
        let e = b.nonterminal("E");
        b.match_rule(s, call, e, ret, e);
        b.empty_rule(e);
        let g = b.build(s).unwrap();
        let compiled = CompiledGrammar::from_vpg(&g).unwrap();
        let word = format!("{call}{ret}");
        assert!(compiled.recognize_word(&word));

        let mut session = compiled.session();
        for b in word.as_bytes() {
            session.push_bytes(std::slice::from_ref(b));
        }
        assert!(session.finish());

        // A dangling partial character never accepts.
        session.reset();
        session.push_bytes(&word.as_bytes()[..word.len() - 1]);
        assert!(!session.finish());

        // Invalid UTF-8 never accepts, whatever follows.
        session.reset();
        session.push_bytes(&[0xff]);
        session.push_str(&word);
        assert!(!session.finish());
    }

    #[test]
    fn batches_preserve_order_and_agree_with_single_calls() {
        let g = figure1_grammar();
        let compiled = CompiledGrammar::from_vpg(&g).unwrap();
        let inputs: Vec<String> = (0..64)
            .map(|k| {
                if k % 3 == 0 {
                    format!("{}cdcd{}cd", "ag".repeat(k % 5 + 1), "hb".repeat(k % 5 + 1))
                } else {
                    format!("cd{}", "x".repeat(k % 2))
                }
            })
            .collect();
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let verdicts = compiled.recognize_batch(&refs);
        assert_eq!(verdicts.len(), refs.len());
        for (s, v) in refs.iter().zip(&verdicts) {
            assert_eq!(*v, compiled.recognize(s), "verdict order broken at {s:?}");
            let parse = compiled.parse(s);
            assert_eq!(parse.is_ok(), *v, "parse/recognize disagree at {s:?}");
            if let Ok(tree) = parse {
                assert_eq!(tree.yielded(), *s);
            }
        }
        // Empty batches are fine.
        assert!(compiled.recognize_batch(&[]).is_empty());
    }
}
