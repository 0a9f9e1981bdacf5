//! Learning the five Table-1 languages and turning the results into served
//! artifacts, timed around the public entry points.

use std::cell::Cell;
use std::time::{Duration, Instant};

use vstar_oracles::{CountedLanguage, CountingOracle, Language};
use vstar_parser::{CompileLearned, CompiledGrammar};

/// Which pipeline learns a language.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `VStar::learn`: the serving path's set-up.
    Plain,
    /// `VStar::learn_refined` with differential-fuzz evidence, configured as
    /// the `trace` bin configures it.
    Refined,
}

/// Seed of the refinement loop's fuzz campaigns. Fixed, so the learner's work
/// (and with it `learn_queries`) is the same for every benchmark seed.
const REFINE_FUZZ_SEED: u64 = 42;
/// In-loop campaign iterations and sample budget (the `trace` bin's).
const REFINE_ITERATIONS: usize = 300;
const REFINE_BUDGET: usize = 24;

/// What learning one language did.
pub struct Learned {
    pub name: &'static str,
    pub learned: vstar::LearnedLanguage,
    pub secs: f64,
    /// Unique membership queries: distinct strings the oracle answered. The
    /// counting oracle calls `Language::accepts` only on a cache miss, so this
    /// is also the number of oracle calls.
    pub queries: u64,
    /// `Mat` lookups and the cache hits among them.
    pub mat_lookups: u64,
    pub mat_hits: u64,
    /// Time spent in `Language::accepts`.
    pub oracle_secs: f64,
    pub states: u64,
}

/// Learns `lang` through one shared counting oracle, as the `trace` bin
/// does: the learner's `Mat` and the refinement campaigns draw on the same
/// cache, so its unique-query count is the paper's #Queries.
///
/// # Panics
///
/// Panics when learning fails; the bundled languages always learn.
pub fn learn(lang: &dyn Language, mode: Mode) -> Learned {
    let oracle_time = Cell::new(Duration::ZERO);
    let counting = CountingOracle::new(|s: &str| {
        let started = Instant::now();
        let verdict = lang.accepts(s);
        oracle_time.set(oracle_time.get() + started.elapsed());
        verdict
    });
    let member = |s: &str| counting.member(s);
    let mat = vstar::Mat::new(&member);
    let vstar = vstar::VStar::new(vstar::VStarConfig::default());

    let started = Instant::now();
    let result = match mode {
        Mode::Plain => {
            vstar.learn(&mat, &lang.alphabet(), &lang.seeds()).expect("the bundled languages learn")
        }
        Mode::Refined => {
            let counted = CountedLanguage::new(lang, &counting);
            let fuzz = vstar_fuzz::FuzzConfig {
                seed: REFINE_FUZZ_SEED,
                iterations: REFINE_ITERATIONS,
                sample_budget: REFINE_BUDGET,
                ..vstar_fuzz::FuzzConfig::default()
            };
            let refine = vstar::refine::RefineConfig::default();
            let mut source = vstar_fuzz::CampaignEvidence::new(&counted, fuzz)
                .with_seed_window(refine.clean_passes as u64);
            vstar
                .learn_refined(&mat, &lang.alphabet(), &lang.seeds(), &mut source, refine)
                .expect("the bundled languages learn with refinement")
                .0
        }
    };
    let secs = started.elapsed().as_secs_f64();

    Learned {
        name: lang.name(),
        learned: result.as_learned_language(),
        secs,
        queries: counting.unique_queries() as u64,
        mat_lookups: mat.total_queries() as u64,
        mat_hits: mat.cache_hits() as u64,
        oracle_secs: oracle_time.get().as_secs_f64(),
        states: result.stats.states as u64,
    }
}

/// A compiled grammar as a serving process holds it: loaded back from its
/// own artifact document.
pub struct Served {
    pub name: &'static str,
    pub grammar: CompiledGrammar,
    pub artifact: String,
    pub compile_secs: f64,
    pub load_secs: f64,
}

/// Compiles `learned`, writes the artifact document and loads it back.
///
/// # Panics
///
/// Panics when a learned grammar does not compile or its artifact does not
/// load; both are program defects the benchmark cannot measure around.
pub fn serve(learned: &Learned) -> Served {
    let started = Instant::now();
    let compiled = learned.learned.compile().expect("learned grammars compile");
    let compile_secs = started.elapsed().as_secs_f64();
    let artifact = compiled.to_json();
    let started = Instant::now();
    let grammar = CompiledGrammar::from_json(&artifact).expect("artifacts load back");
    let load_secs = started.elapsed().as_secs_f64();
    Served { name: learned.name, grammar, artifact, compile_secs, load_secs }
}
