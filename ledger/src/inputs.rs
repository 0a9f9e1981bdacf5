//! The benchmark's seeded inputs: short raw inputs and long documents for
//! each Table-1 language, with the oracle's verdict for each.
//!
//! Everything here is a function of the seed: the same seed gives the same
//! inputs, a different seed different ones. The program under test receives
//! only the generated strings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vstar_oracles::Language;

use crate::stats::{fnv, FNV_OFFSET};

/// Generator members per language among the short inputs (each gets a
/// one-character mutant beside it).
const SHORT_MEMBERS: usize = 1000;
/// Byte-length range of a short generator member.
const SHORT_LEN: std::ops::RangeInclusive<usize> = 5..=70;
/// Generator budgets a short member is drawn with.
const SHORT_BUDGETS: [usize; 4] = [6, 12, 24, 40];
/// Target byte sizes of the long documents. A document is generated members
/// joined until it reaches its target, so sizes barely vary with the seed.
/// (Past 2 KB an xml document takes a tenth of a second and more, too long
/// to repeat within a run.)
const DOC_BYTES: [usize; 3] = [100, 400, 1600];
/// Documents per target size and language, each with a mutant beside it.
const DOCS_PER_SIZE: usize = 4;
/// Seed of the document corpus, which is the same for every benchmark seed.
/// Whether the scan of a json or lisp document exhausts its budget (tens of
/// milliseconds, against microseconds otherwise) varies from document to
/// document; with seeded documents the count of such documents, and with it
/// every document metric, would swing from seed to seed. The seed still
/// varies the short inputs and the daemon load.
const DOC_SEED: u64 = 0x0d0c_5eed;
/// Generator budget of a document's members.
const DOC_MEMBER_BUDGET: usize = 24;

/// One input with the oracle's verdict on it.
#[derive(Clone, Debug)]
pub struct Case {
    /// Index of the language in [`vstar_oracles::table1_languages`] order.
    pub lang: usize,
    pub text: String,
    /// `Language::accepts` on `text`; filled by [`Inputs::label`].
    pub expect: bool,
    /// Whether this is a one-character mutant of a generated member.
    pub mutant: bool,
}

/// All inputs of one run.
pub struct Inputs {
    /// Short inputs, interleaved across languages.
    pub short: Vec<Case>,
    /// Long documents by increasing size, interleaved across languages.
    pub docs: Vec<Case>,
}

/// Joins generated members into one container the language accepts: a json
/// array, a lisp list, an xml element, a while statement sequence, a
/// mathexpr sum.
fn container(lang: &str, parts: &[String]) -> String {
    match lang {
        "json" => format!("[{}]", parts.join(",")),
        "lisp" => format!("({})", parts.join(" ")),
        "xml" => format!("<doc>{}</doc>", parts.concat()),
        "while" => parts.join(";"),
        "mathexpr" => parts.join("+"),
        other => panic!("no document container for language {other:?}"),
    }
}

/// `text` with one character replaced by a random alphabet character.
fn mutate(text: &str, alphabet: &[char], rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let at = rng.gen_range(0..chars.len());
    chars[at] = alphabet[rng.gen_range(0..alphabet.len())];
    chars.into_iter().collect()
}

impl Inputs {
    /// Generates the inputs of `seed` (verdicts not yet filled in).
    pub fn generate(seed: u64, langs: &[Box<dyn Language>]) -> Inputs {
        let mut short_by_lang: Vec<Vec<Case>> = Vec::new();
        let mut docs_by_lang: Vec<Vec<Case>> = Vec::new();
        for (li, lang) in langs.iter().enumerate() {
            let lang_seed = fnv(FNV_OFFSET, lang.name().as_bytes());
            let mut rng = StdRng::seed_from_u64(seed ^ lang_seed);
            let alphabet = lang.alphabet();
            let case = |text: String, mutant: bool| Case { lang: li, text, expect: false, mutant };
            let mut short = Vec::with_capacity(2 * SHORT_MEMBERS);
            while short.len() < 2 * SHORT_MEMBERS {
                let budget = SHORT_BUDGETS[rng.gen_range(0..SHORT_BUDGETS.len())];
                let member = lang.generate(&mut rng, budget);
                if SHORT_LEN.contains(&member.len()) {
                    short.push(case(mutate(&member, &alphabet, &mut rng), true));
                    short.push(case(member, false));
                }
            }
            let mut rng = StdRng::seed_from_u64(DOC_SEED ^ lang_seed);
            let mut docs = Vec::with_capacity(2 * DOCS_PER_SIZE * DOC_BYTES.len());
            for target in DOC_BYTES.into_iter().flat_map(|t| [t; DOCS_PER_SIZE]) {
                let mut parts = vec![lang.generate(&mut rng, DOC_MEMBER_BUDGET)];
                while container(lang.name(), &parts).len() < target {
                    parts.push(lang.generate(&mut rng, DOC_MEMBER_BUDGET));
                }
                let doc = container(lang.name(), &parts);
                docs.push(case(mutate(&doc, &alphabet, &mut rng), true));
                docs.push(case(doc, false));
            }
            short_by_lang.push(short);
            docs_by_lang.push(docs);
        }
        Inputs { short: interleave(short_by_lang), docs: interleave(docs_by_lang) }
    }

    /// Fills in every verdict from the oracle. Kept apart from
    /// [`Inputs::generate`] so it stays outside every timed section.
    ///
    /// # Panics
    ///
    /// Panics when a generated member or document is not a member: the
    /// generators and containers are broken then, not the program.
    pub fn label(&mut self, langs: &[Box<dyn Language>]) {
        for case in self.short.iter_mut().chain(self.docs.iter_mut()) {
            case.expect = langs[case.lang].accepts(&case.text);
            assert!(
                case.expect || case.mutant,
                "{} generated a non-member: {:?}",
                langs[case.lang].name(),
                case.text
            );
        }
    }

    /// A fingerprint of every input string.
    pub fn fingerprint(&self) -> u64 {
        self.short.iter().chain(&self.docs).fold(FNV_OFFSET, |h, c| fnv(h, c.text.as_bytes()))
    }
}

/// Round-robin merge: the first case of every language, then the second, …
fn interleave(by_lang: Vec<Vec<Case>>) -> Vec<Case> {
    let longest = by_lang.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        out.extend(by_lang.iter().filter_map(|cases| cases.get(i).cloned()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded_members_and_mutants() {
        let langs = vstar_oracles::table1_languages();
        let mut a = Inputs::generate(3, &langs);
        a.label(&langs);
        let b = Inputs::generate(3, &langs);
        let c = Inputs::generate(4, &langs);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.short.len(), langs.len() * 2 * SHORT_MEMBERS);
        assert_eq!(a.docs.len(), langs.len() * 2 * DOCS_PER_SIZE * DOC_BYTES.len());
        assert!(a.docs.iter().all(|d| d.mutant || d.expect));
        assert!(a.short.iter().any(|s| s.mutant && !s.expect));
    }
}
