//! Pins the paper's metric: plain `VStar::learn` on the five Table-1 languages
//! must issue exactly the same unique membership queries, in exactly the same
//! order, as the learner without its observation-table answer memo did. The
//! memo may only skip lookups that the `Mat` would have answered from its
//! cache; the bound on `Mat::total_queries` keeps it from silently turning
//! back into repeated lookups. Character-mode learns of the toy oracles are
//! pinned the same way, since tagging inference and nesting-pattern search
//! run only in that mode.

use std::cell::Cell;

use vstar::{Mat, TokenDiscovery, VStar, VStarConfig, VStarError, VStarResult};
use vstar_oracles::{Dyck, Fig1, Json, Language, Lisp, MathExpr, ToyXml, WhileLang, Xml};

/// What one plain learn is pinned to.
struct Expected {
    /// Unique oracle queries (`Mat` misses) of the whole learn.
    unique: usize,
    /// FNV-1a 64 over the ordered miss sequence (each word, then `0xff`).
    digest: u64,
    /// Upper bound on all `Mat` lookups, cache hits included. Without the
    /// answer memo the learns made 11.9M (json), 252K (lisp), 966K (xml),
    /// 8.7M (while) and 1.7M (mathexpr); with it, 160K, 57K, 76K, 210K, 59K.
    max_total: usize,
}

fn fnv1a_64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn check(lang: &dyn Language, expected: &Expected) {
    check_mode(lang, TokenDiscovery::Tokens, expected)
        .unwrap_or_else(|e| panic!("{} learning failed: {e}", lang.name()));
}

/// Learns `lang` in `mode`, checks the queries against `expected` whether or
/// not the learn succeeds, and returns its outcome.
fn check_mode(
    lang: &dyn Language,
    mode: TokenDiscovery,
    expected: &Expected,
) -> Result<VStarResult, VStarError> {
    let digest = Cell::new(0xcbf2_9ce4_8422_2325u64);
    // The Mat calls the oracle exactly once per unique word, on its first
    // occurrence, so this closure sees the ordered miss sequence.
    let oracle = |s: &str| {
        digest.set(fnv1a_64(fnv1a_64(digest.get(), s.as_bytes()), &[0xff]));
        lang.accepts(s)
    };
    let mat = Mat::new(&oracle);
    let outcome = VStar::new(VStarConfig { token_discovery: mode, ..VStarConfig::default() })
        .learn(&mat, &lang.alphabet(), &lang.seeds());
    let (unique, total) = (mat.unique_queries(), mat.total_queries());
    eprintln!("{}: unique {unique}, digest {:#018x}, total {total}", lang.name(), digest.get());
    assert_eq!(unique, expected.unique, "{}: unique queries", lang.name());
    assert_eq!(digest.get(), expected.digest, "{}: ordered miss sequence", lang.name());
    assert!(
        total < expected.max_total,
        "{}: {total} Mat lookups, bound {}",
        lang.name(),
        expected.max_total
    );
    outcome
}

#[test]
fn json_queries_are_pinned() {
    check(
        &Json::new(),
        &Expected { unique: 86065, digest: 0x744d_487e_f559_79db, max_total: 1_000_000 },
    );
}

#[test]
fn lisp_queries_are_pinned() {
    check(
        &Lisp::new(),
        &Expected { unique: 36161, digest: 0x94d8_3a73_9048_32a0, max_total: 150_000 },
    );
}

#[test]
fn xml_queries_are_pinned() {
    check(
        &Xml::new(),
        &Expected { unique: 51813, digest: 0x3020_f973_2573_e442, max_total: 250_000 },
    );
}

#[test]
fn while_queries_are_pinned() {
    check(
        &WhileLang::new(),
        &Expected { unique: 127740, digest: 0x19ea_1c1a_f67f_df86, max_total: 1_000_000 },
    );
}

#[test]
fn mathexpr_queries_are_pinned() {
    check(
        &MathExpr::new(),
        &Expected { unique: 46877, digest: 0x66ed_e33f_7704_9726, max_total: 250_000 },
    );
}

#[test]
fn fig1_character_queries_are_pinned() {
    check_mode(
        &Fig1::new(),
        TokenDiscovery::Characters,
        &Expected { unique: 1838, digest: 0x922b_7caf_6349_7f7c, max_total: 10_000 },
    )
    .expect("fig1 learns in character mode");
}

#[test]
fn toy_xml_character_queries_are_pinned() {
    // `<p>`/`</p>` are multi-character tokens, so no character-level tagging
    // fits: the learn fails after tagging inference has spent its queries.
    let outcome = check_mode(
        &ToyXml::new(),
        TokenDiscovery::Characters,
        &Expected { unique: 1767, digest: 0xc782_c0ee_2d45_7ea3, max_total: 30_000 },
    );
    assert!(outcome.is_err(), "toy xml has no character-level tagging");
}

#[test]
fn dyck_character_queries_are_pinned() {
    check_mode(
        &Dyck::new(),
        TokenDiscovery::Characters,
        &Expected { unique: 380, digest: 0x65e4_fed5_aecb_10f4, max_total: 2_000 },
    )
    .expect("dyck learns in character mode");
}
