//! Versioned on-disk serialization of [`CompiledGrammar`] artifacts.
//!
//! The format persists what the artifact *is* — the grammar (names, rules,
//! tagging), the compiled tokenizer (literal and DFA matchers plus the
//! k-Repetition bound) and the discovery mode — as a versioned JSON document;
//! the derivative-automaton tables are a deterministic function of those and
//! are rebuilt on [`CompiledGrammar::load`], so a stale or hand-edited table
//! can never disagree with the grammar it allegedly compiles.
//!
//! Loading is total: every malformed input maps to a typed [`ArtifactError`]
//! (I/O, JSON syntax, format violations, version mismatches, compilation
//! budget), never a panic.

use std::fmt;
use std::path::Path;

use serde::Value;
use vstar::tokenizer::{TokenMatcher, TokenPair};
use vstar::{PartialTokenizer, TokenDiscovery};
use vstar_automata::Dfa;
use vstar_vpl::{NonterminalId, RuleRhs, Tagging, Vpg, VpgBuilder};

use crate::compiled::{CompileError, CompiledGrammar};

/// The `format` tag every artifact document carries.
const FORMAT_TAG: &str = "vstar-compiled-grammar";

/// The on-disk format version this build writes and reads.
pub const ARTIFACT_VERSION: u64 = 1;

/// Why an artifact could not be saved or loaded.
#[derive(Debug)]
pub enum ArtifactError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Json(serde_json::ParseError),
    /// The document is valid JSON but not a valid artifact (wrong `format`
    /// tag, missing field, malformed rule, …).
    Format {
        /// What was wrong.
        reason: String,
    },
    /// The document is a newer (or unknown) format version.
    UnsupportedVersion {
        /// The version found in the document.
        found: u64,
        /// The version this build supports.
        supported: u64,
    },
    /// The decoded grammar failed to recompile into an automaton.
    Compile(CompileError),
    /// Each field is well-formed but the document is internally inconsistent
    /// or exceeds a resource bound (a declared DFA size past
    /// [`MAX_MATCHER_STATES`], a tagging that does not correspond to the
    /// tokenizer it ships with).
    Integrity {
        /// What was inconsistent.
        reason: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O failed: {e}"),
            ArtifactError::Json(e) => write!(f, "artifact is not valid JSON: {e}"),
            ArtifactError::Format { reason } => write!(f, "malformed artifact: {reason}"),
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported artifact version {found} (this build reads {supported})")
            }
            ArtifactError::Compile(e) => write!(f, "artifact failed to recompile: {e}"),
            ArtifactError::Integrity { reason } => {
                write!(f, "artifact failed integrity checks: {reason}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Json(e) => Some(e),
            ArtifactError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<CompileError> for ArtifactError {
    fn from(e: CompileError) -> Self {
        ArtifactError::Compile(e)
    }
}

fn format_err(reason: impl Into<String>) -> ArtifactError {
    ArtifactError::Format { reason: reason.into() }
}

fn integrity_err(reason: impl Into<String>) -> ArtifactError {
    ArtifactError::Integrity { reason: reason.into() }
}

/// Cap on the declared state count of a serialized matcher DFA. Learned
/// matchers are tiny (tokens are short regular fragments); a document
/// declaring more states than this is hostile or corrupt, and accepting it
/// would make later re-serialization materialize the full declared range.
pub const MAX_MATCHER_STATES: usize = 1 << 16;

impl CompiledGrammar {
    /// Serializes the artifact to its versioned JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&encode(self)).expect("artifact documents contain no NaN")
    }

    /// FNV-1a 64-bit hash of the canonical artifact document
    /// ([`CompiledGrammar::to_json`], whose rendering is byte-stable), so two
    /// artifacts fingerprint equal exactly when their persisted form is
    /// byte-identical. This is the identity the serving registry logs on hot
    /// reload and exposes per grammar.
    #[must_use]
    pub fn artifact_fingerprint(&self) -> u64 {
        fnv1a_64(self.to_json().as_bytes())
    }

    /// Deserializes an artifact from its versioned JSON document, rebuilding
    /// the automaton tables.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ArtifactError`] on malformed JSON, format
    /// violations, an unsupported `version`, or recompilation failure.
    pub fn from_json(text: &str) -> Result<Self, ArtifactError> {
        let doc = serde_json::from_str(text).map_err(ArtifactError::Json)?;
        decode(&doc)
    }

    /// Writes the artifact to `path` (see [`CompiledGrammar::to_json`] for
    /// the format). Learn once, [`CompiledGrammar::load`] forever.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] when writing fails.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Reads an artifact previously written by [`CompiledGrammar::save`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`ArtifactError`] on I/O failure, malformed content,
    /// an unsupported `version`, or recompilation failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

/// FNV-1a 64-bit over `bytes` (the offset-basis/prime pair of the reference
/// implementation) — a stable, dependency-free content hash for artifact
/// identity; not collision-resistant against adversaries.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn char_value(c: char) -> Value {
    Value::Str(c.to_string())
}

fn encode_matcher(m: &TokenMatcher) -> Value {
    match m {
        TokenMatcher::Literal(lit) => {
            Value::Object(vec![("literal".into(), Value::Str(lit.clone()))])
        }
        TokenMatcher::Dfa(dfa) => {
            let mut transitions = Vec::new();
            for s in 0..dfa.state_count() {
                for &c in dfa.alphabet() {
                    if let Some(t) = dfa.delta(s, c) {
                        transitions.push(Value::Array(vec![
                            Value::Int(s as i128),
                            char_value(c),
                            Value::Int(t as i128),
                        ]));
                    }
                }
            }
            Value::Object(vec![(
                "dfa".into(),
                Value::Object(vec![
                    (
                        "alphabet".into(),
                        Value::Array(dfa.alphabet().iter().copied().map(char_value).collect()),
                    ),
                    ("states".into(), Value::Int(dfa.state_count() as i128)),
                    ("initial".into(), Value::Int(dfa.initial() as i128)),
                    (
                        "accepting".into(),
                        Value::Array(
                            dfa.accepting().iter().map(|&s| Value::Int(s as i128)).collect(),
                        ),
                    ),
                    ("transitions".into(), Value::Array(transitions)),
                ]),
            )])
        }
    }
}

fn encode(artifact: &CompiledGrammar) -> Value {
    let vpg = artifact.vpg();
    let mode = match artifact.mode() {
        TokenDiscovery::Characters => "characters",
        TokenDiscovery::Tokens => "tokens",
    };
    let tagging = Value::Array(
        vpg.tagging()
            .pairs()
            .iter()
            .map(|&(c, r)| Value::Array(vec![char_value(c), char_value(r)]))
            .collect(),
    );
    let nonterminals = Value::Array(
        (0..vpg.nonterminal_count())
            .map(|i| Value::Str(vpg.name(NonterminalId(i)).to_string()))
            .collect(),
    );
    let rules = Value::Array(
        (0..vpg.nonterminal_count())
            .map(|i| {
                Value::Array(
                    vpg.alternatives(NonterminalId(i))
                        .iter()
                        .map(|rhs| match *rhs {
                            RuleRhs::Empty => {
                                Value::Object(vec![("type".into(), Value::Str("empty".into()))])
                            }
                            RuleRhs::Linear { plain, next } => Value::Object(vec![
                                ("type".into(), Value::Str("linear".into())),
                                ("plain".into(), char_value(plain)),
                                ("next".into(), Value::Int(next.0 as i128)),
                            ]),
                            RuleRhs::Match { call, inner, ret, next } => Value::Object(vec![
                                ("type".into(), Value::Str("match".into())),
                                ("call".into(), char_value(call)),
                                ("inner".into(), Value::Int(inner.0 as i128)),
                                ("ret".into(), char_value(ret)),
                                ("next".into(), Value::Int(next.0 as i128)),
                            ]),
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    let tokenizer = artifact.tokenizer();
    let pairs = Value::Array(
        tokenizer
            .pairs()
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("call".into(), encode_matcher(&p.call)),
                    ("ret".into(), encode_matcher(&p.ret)),
                ])
            })
            .collect(),
    );
    Value::Object(vec![
        ("format".into(), Value::Str(FORMAT_TAG.into())),
        ("version".into(), Value::Int(ARTIFACT_VERSION as i128)),
        ("mode".into(), Value::Str(mode.into())),
        ("tagging".into(), tagging),
        ("nonterminals".into(), nonterminals),
        ("start".into(), Value::Int(vpg.start().0 as i128)),
        ("rules".into(), rules),
        (
            "tokenizer".into(),
            Value::Object(vec![
                ("k_repetition".into(), Value::Int(tokenizer.k_repetition() as i128)),
                ("pairs".into(), pairs),
            ]),
        ),
    ])
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, ArtifactError> {
    v.get(key).ok_or_else(|| format_err(format!("missing field {key:?}")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, ArtifactError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format_err(format!("field {key:?} must be a non-negative integer")))
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, ArtifactError> {
    field(v, key)?.as_str().ok_or_else(|| format_err(format!("field {key:?} must be a string")))
}

fn array_field<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], ArtifactError> {
    field(v, key)?.as_array().ok_or_else(|| format_err(format!("field {key:?} must be an array")))
}

fn one_char(v: &Value, what: &str) -> Result<char, ArtifactError> {
    let s = v.as_str().ok_or_else(|| format_err(format!("{what} must be a string")))?;
    let mut chars = s.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Ok(c),
        _ => Err(format_err(format!("{what} must be exactly one character, got {s:?}"))),
    }
}

fn decode_matcher(v: &Value) -> Result<TokenMatcher, ArtifactError> {
    if let Some(lit) = v.get("literal") {
        let lit = lit.as_str().ok_or_else(|| format_err("\"literal\" must be a string"))?;
        return Ok(TokenMatcher::Literal(lit.to_string()));
    }
    let Some(dfa) = v.get("dfa") else {
        return Err(format_err("matcher must have a \"literal\" or \"dfa\" field"));
    };
    let states = usize::try_from(u64_field(dfa, "states")?)
        .map_err(|_| format_err("\"states\" out of range"))?;
    if states == 0 {
        return Err(format_err("a DFA needs at least one state"));
    }
    if states > MAX_MATCHER_STATES {
        return Err(integrity_err(format!(
            "matcher DFA declares {states} states (limit {MAX_MATCHER_STATES})"
        )));
    }
    let initial = usize::try_from(u64_field(dfa, "initial")?)
        .map_err(|_| format_err("\"initial\" out of range"))?;
    if initial >= states {
        return Err(format_err("\"initial\" is not a state"));
    }
    let mut alphabet = Vec::new();
    for c in array_field(dfa, "alphabet")? {
        alphabet.push(one_char(c, "DFA alphabet entry")?);
    }
    let mut accepting = std::collections::BTreeSet::new();
    for a in array_field(dfa, "accepting")? {
        let s = a
            .as_u64()
            .and_then(|s| usize::try_from(s).ok())
            .ok_or_else(|| format_err("accepting entry must be a state index"))?;
        if s >= states {
            return Err(format_err("accepting entry is not a state"));
        }
        accepting.insert(s);
    }
    let mut transitions = std::collections::BTreeMap::new();
    for t in array_field(dfa, "transitions")? {
        let t = t.as_array().ok_or_else(|| format_err("transition must be [from, char, to]"))?;
        let [from, ch, to] = t else {
            return Err(format_err("transition must be [from, char, to]"));
        };
        let from = from
            .as_u64()
            .and_then(|s| usize::try_from(s).ok())
            .filter(|&s| s < states)
            .ok_or_else(|| format_err("transition source is not a state"))?;
        let to = to
            .as_u64()
            .and_then(|s| usize::try_from(s).ok())
            .filter(|&s| s < states)
            .ok_or_else(|| format_err("transition target is not a state"))?;
        let ch = one_char(ch, "transition character")?;
        if !alphabet.contains(&ch) {
            return Err(format_err("transition character outside the DFA alphabet"));
        }
        transitions.insert((from, ch), to);
    }
    Ok(TokenMatcher::Dfa(Dfa::new(alphabet, states, initial, accepting, transitions)))
}

fn decode(doc: &Value) -> Result<CompiledGrammar, ArtifactError> {
    let format = str_field(doc, "format")?;
    if format != FORMAT_TAG {
        return Err(format_err(format!("not a {FORMAT_TAG} document (format {format:?})")));
    }
    let version = u64_field(doc, "version")?;
    if version != ARTIFACT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: ARTIFACT_VERSION,
        });
    }
    let mode = match str_field(doc, "mode")? {
        "characters" => TokenDiscovery::Characters,
        "tokens" => TokenDiscovery::Tokens,
        other => return Err(format_err(format!("unknown mode {other:?}"))),
    };

    let mut pairs = Vec::new();
    for pair in array_field(doc, "tagging")? {
        let pair = pair.as_array().ok_or_else(|| format_err("tagging entry must be a pair"))?;
        let [c, r] = pair else {
            return Err(format_err("tagging entry must be a pair"));
        };
        pairs.push((one_char(c, "tagging call")?, one_char(r, "tagging return")?));
    }
    let tagging =
        Tagging::from_pairs(pairs).map_err(|e| format_err(format!("invalid tagging: {e}")))?;

    let names = array_field(doc, "nonterminals")?;
    let mut builder = VpgBuilder::new(tagging);
    for (i, name) in names.iter().enumerate() {
        let name = name.as_str().ok_or_else(|| format_err("nonterminal name must be a string"))?;
        let id = builder.nonterminal(name);
        if id.0 != i {
            return Err(format_err(format!("duplicate nonterminal name {name:?}")));
        }
    }
    let n = names.len();
    let nt = |v: &Value, what: &str| -> Result<NonterminalId, ArtifactError> {
        let i = v
            .as_u64()
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| i < n)
            .ok_or_else(|| format_err(format!("{what} is not a nonterminal index")))?;
        Ok(NonterminalId(i))
    };
    let rules = array_field(doc, "rules")?;
    if rules.len() != n {
        return Err(format_err("\"rules\" must have one entry per nonterminal"));
    }
    for (i, alts) in rules.iter().enumerate() {
        let lhs = NonterminalId(i);
        let alts =
            alts.as_array().ok_or_else(|| format_err("rule alternatives must be an array"))?;
        for alt in alts {
            match str_field(alt, "type")? {
                "empty" => {
                    builder.empty_rule(lhs);
                }
                "linear" => {
                    builder.linear_rule(
                        lhs,
                        one_char(field(alt, "plain")?, "\"plain\"")?,
                        nt(field(alt, "next")?, "\"next\"")?,
                    );
                }
                "match" => {
                    builder.match_rule(
                        lhs,
                        one_char(field(alt, "call")?, "\"call\"")?,
                        nt(field(alt, "inner")?, "\"inner\"")?,
                        one_char(field(alt, "ret")?, "\"ret\"")?,
                        nt(field(alt, "next")?, "\"next\"")?,
                    );
                }
                other => return Err(format_err(format!("unknown rule type {other:?}"))),
            }
        }
    }
    let start = nt(field(doc, "start")?, "\"start\"")?;
    let vpg: Vpg = builder.build(start).map_err(|e| format_err(format!("invalid grammar: {e}")))?;

    let tok = field(doc, "tokenizer")?;
    let k = usize::try_from(u64_field(tok, "k_repetition")?)
        .map_err(|_| format_err("\"k_repetition\" out of range"))?;
    let mut tokenizer = PartialTokenizer::new().with_k_repetition(k);
    for pair in array_field(tok, "pairs")? {
        tokenizer.push_pair(TokenPair {
            call: decode_matcher(field(pair, "call")?)?,
            ret: decode_matcher(field(pair, "ret")?)?,
        });
    }

    // Cross-layer integrity: the grammar's tagging and the tokenizer are
    // produced together by the pipeline, so a document where they disagree
    // was not produced by `save` — reject it instead of serving artifacts
    // whose conversion layer and automaton speak different alphabets.
    match mode {
        TokenDiscovery::Tokens => {
            let expected: Vec<(char, char)> = (0..tokenizer.pair_count())
                .map(|i| (vstar::tokenizer::call_marker(i), vstar::tokenizer::return_marker(i)))
                .collect();
            if vpg.tagging().pairs() != expected.as_slice() {
                return Err(integrity_err(format!(
                    "token-mode tagging must be the tokenizer's marker pairs \
                     (tokenizer has {} pair(s), tagging has {})",
                    tokenizer.pair_count(),
                    vpg.tagging().pair_count()
                )));
            }
        }
        TokenDiscovery::Characters => {
            if vpg.tagging().pair_count() != tokenizer.pair_count() {
                return Err(integrity_err(format!(
                    "character-mode tokenizer carries {} pair(s) but the tagging has {}",
                    tokenizer.pair_count(),
                    vpg.tagging().pair_count()
                )));
            }
        }
    }

    Ok(CompiledGrammar::assemble(vpg, tokenizer, mode)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::MAX_PRODUCT_SIZE;
    use vstar_vpl::grammar::figure1_grammar;

    #[test]
    fn json_round_trip_is_stable_and_equivalent() {
        let compiled = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
        let json = compiled.to_json();
        let reloaded = CompiledGrammar::from_json(&json).unwrap();
        // The document is canonical: serializing the reload is byte-identical.
        assert_eq!(reloaded.to_json(), json);
        // And the artifacts decide identically.
        for w in ["", "agcdcdhbcd", "cd", "ab", "agh"] {
            assert_eq!(reloaded.recognize(w), compiled.recognize(w), "{w:?}");
        }
        assert_eq!(reloaded.table_view().state_count(), compiled.table_view().state_count());
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let compiled = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
        let path = std::env::temp_dir().join("vstar_artifact_roundtrip_test.json");
        compiled.save(&path).unwrap();
        let reloaded = CompiledGrammar::load(&path).unwrap();
        assert!(reloaded.recognize("agcdcdhbcd"));
        assert!(!reloaded.recognize("ag"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_failures_are_typed() {
        // Missing file.
        let missing = CompiledGrammar::load("/nonexistent/vstar/artifact.json");
        assert!(matches!(missing, Err(ArtifactError::Io(_))), "{missing:?}");
        // Invalid JSON.
        let garbled = CompiledGrammar::from_json("{not json");
        assert!(matches!(garbled, Err(ArtifactError::Json(_))), "{garbled:?}");
        // Wrong format tag.
        let wrong = CompiledGrammar::from_json("{\"format\":\"something-else\",\"version\":1}");
        assert!(matches!(wrong, Err(ArtifactError::Format { .. })), "{wrong:?}");
        // Future version.
        let compiled = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
        let bumped = compiled.to_json().replacen("\"version\": 1", "\"version\": 999", 1);
        let future = CompiledGrammar::from_json(&bumped);
        assert!(
            matches!(future, Err(ArtifactError::UnsupportedVersion { found: 999, supported: 1 })),
            "{future:?}"
        );
        // Structurally broken documents.
        for (broken, what) in [
            ("{\"format\":\"vstar-compiled-grammar\"}", "missing version"),
            (
                "{\"format\":\"vstar-compiled-grammar\",\"version\":1,\"mode\":\"quantum\"}",
                "unknown mode",
            ),
        ] {
            let e = CompiledGrammar::from_json(broken);
            assert!(matches!(e, Err(ArtifactError::Format { .. })), "{what}: {e:?}");
        }
        // Errors render with context.
        let text = CompiledGrammar::from_json("{not json").unwrap_err().to_string();
        assert!(text.contains("not valid JSON"), "{text}");
    }

    #[test]
    fn rule_references_are_validated() {
        let compiled = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
        let json = compiled.to_json();
        // Point a rule at a nonexistent nonterminal.
        let broken = json.replacen("\"next\": 0", "\"next\": 99", 1);
        let e = CompiledGrammar::from_json(&broken);
        assert!(matches!(e, Err(ArtifactError::Format { .. })), "{e:?}");
    }

    /// An artifact document whose tokenizer has `pairs` `(call, return)`
    /// matchers, each cycling through the given number of states on `a`
    /// (0: a one-state loop on `a` that never accepts). From every cycle
    /// state `b` leads to the one accepting state, so no state the cycle
    /// passes through is labelled and every matcher stays live on `a`.
    fn document_with_cycles(pairs: &[(usize, usize)]) -> String {
        let cycle = |n: usize| {
            let dfa = if n == 0 {
                Dfa::new(vec!['a'], 1, 0, [].into(), [((0, 'a'), 0)].into())
            } else {
                let moves = (0..n).flat_map(|s| [((s, 'a'), (s + 1) % n), ((s, 'b'), n)]);
                Dfa::new(vec!['a', 'b'], n + 1, 0, [n].into(), moves.collect())
            };
            encode_matcher(&TokenMatcher::Dfa(dfa))
        };
        let marker = |code: usize| char::from_u32(0x100 + code as u32).unwrap();
        let tagging =
            Tagging::from_pairs((0..pairs.len()).map(|i| (marker(2 * i), marker(2 * i + 1))))
                .unwrap();
        let mut b = VpgBuilder::new(tagging);
        let s = b.nonterminal("S");
        b.empty_rule(s);
        let mut doc = encode(&CompiledGrammar::from_vpg(&b.build(s).unwrap()).unwrap());
        let Value::Object(fields) = &mut doc else { panic!("an artifact is an object") };
        let Some((_, Value::Object(tokenizer))) = fields.iter_mut().find(|(k, _)| k == "tokenizer")
        else {
            panic!("an artifact has a tokenizer object")
        };
        let slot = tokenizer.iter_mut().find(|(k, _)| k == "pairs").unwrap();
        slot.1 = Value::Array(
            pairs
                .iter()
                .map(|&(call, ret)| {
                    Value::Object(vec![("call".into(), cycle(call)), ("ret".into(), cycle(ret))])
                })
                .collect(),
        );
        serde_json::to_string(&doc).unwrap()
    }

    /// The product matcher's size is capped, whether it comes from many
    /// states (cycles of 17, 19, 23 and 29 states: 215 441 product states)
    /// or from many matchers that stay live in each of a few thousand states
    /// (cycles of 5, 7, 11 and 13 states, 5 005 product states, with 200
    /// `a*b` matchers alongside). Matchers that can never accept are left
    /// out of the product, so the same 200 fillers without an accepting
    /// state cost nothing.
    #[test]
    fn oversized_matcher_products_fail_to_load() {
        let too_large = |e: &Result<CompiledGrammar, ArtifactError>| {
            matches!(
                e,
                Err(ArtifactError::Compile(CompileError::MatcherTooLarge {
                    limit: MAX_PRODUCT_SIZE
                }))
            )
        };
        let e = CompiledGrammar::from_json(&document_with_cycles(&[(17, 19), (23, 29)]));
        assert!(too_large(&e), "{e:?}");

        let small = [(5, 7), (11, 13)];
        let e = CompiledGrammar::from_json(&document_with_cycles(&small));
        assert!(e.is_ok(), "{e:?}");
        let live = [&small[..], &[(1, 1); 100]].concat();
        let e = CompiledGrammar::from_json(&document_with_cycles(&live));
        assert!(too_large(&e), "{e:?}");
        let never_accepting = [&small[..], &[(0, 0); 100]].concat();
        let e = CompiledGrammar::from_json(&document_with_cycles(&never_accepting));
        assert!(e.is_ok(), "{e:?}");
    }
}
