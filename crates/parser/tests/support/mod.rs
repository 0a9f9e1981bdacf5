//! The mixed serving corpus of a Table-1 language: seeds, generated members,
//! one-character mutants and truncations. Shared by the artifact round-trip
//! tests (`tests/artifacts.rs`) and the scan equivalence test of the
//! `compiled` module, so both decide exactly the same inputs.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vstar_oracles::Language;

/// The seeded corpus of `lang` (the same for every run).
pub fn corpus(lang: &dyn Language) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0xA27 ^ lang.name().len() as u64);
    let mut corpus: Vec<String> = lang.seeds();
    corpus.extend(lang.generate_corpus(&mut rng, 18, 60));
    let alphabet = lang.alphabet();
    for k in 0..corpus.len() {
        let s = corpus[k].clone();
        let mut mutated: Vec<char> = s.chars().collect();
        if !mutated.is_empty() {
            let i = (k * 13) % mutated.len();
            mutated[i] = alphabet[(k * 7) % alphabet.len()];
            corpus.push(mutated.into_iter().collect());
        }
        if s.len() > 1 {
            corpus.push(s[..s.len() / 2].to_string());
        }
    }
    corpus
}
