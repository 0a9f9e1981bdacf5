//! Serving-path throughput: compiled artifact vs. uncompiled parser.
//!
//! For each selected Table-1 grammar the binary (1) learns the language with
//! the default V-Star pipeline, (2) compiles the learned grammar into the
//! owned [`vstar_parser::CompiledGrammar`] artifact, (3) builds a
//! deterministic corpus of converted words (grammar samples plus mutated
//! non-members) and (4) measures recognition throughput of the uncompiled
//! item-set parser against the compiled table-driven automaton, plus raw-string
//! `recognize` on a deterministic corpus of oracle-generated members and
//! their one-character mutants.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vstar_bench --bin serve -- \
//!     [grammar ...] [--seed N] [--samples N] [--passes N] [--check] [--json]
//! ```
//!
//! Defaults: all five grammars, `--seed 42`, `--samples 300`, `--passes 40`;
//! corpus words are sampled, and raw members generated, with a budget of 40.
//! A full-set run at the default configuration rewrites the tracked
//! `BENCH_serve.json`. Corpus
//! shapes, acceptance counts and artifact sizes are deterministic for a fixed
//! seed; the `*_chars_per_sec` and `speedup` fields are wall-clock
//! measurements and are excluded from the determinism claim (the same
//! convention as `BENCH_table1.json`'s `time_seconds`).
//!
//! `--check` turns the run into the CI smoke gate: the process exits nonzero
//! when the compiled artifact disagrees with the uncompiled parser on any
//! corpus word, when a save → load round trip drifts, or when the raw-input
//! entry points disagree on any raw corpus string — for the compiled
//! and the reloaded artifact alike, `recognize(r)`,
//! `converted_word(r).is_some()` and `parse(r).is_ok()` must be one verdict.
//! Throughput is printed but not gated (CI machines are noisy); the
//! committed `BENCH_serve.json` documents the measured speedups.

use std::time::Instant;

use serde::Serialize;

use vstar_bench::cli::{usage_error, write_tracked_report, Args};
use vstar_bench::{learn_plain, raw_corpus, sample_corpus};
use vstar_parser::{CompileLearned, CompiledGrammar, VpgParser};

const JSON_REPORT_PATH: &str = "BENCH_serve.json";

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SAMPLES: usize = 300;
const DEFAULT_BUDGET: usize = 40;
const DEFAULT_PASSES: usize = 40;

const USAGE: &str = "serve [grammar ...] [--seed N] [--samples N] [--passes N] [--check] [--json]";

/// One grammar's serving measurements. Every field except the
/// `*_chars_per_sec` and `speedup*` wall-clock measurements is deterministic
/// for a fixed seed.
#[derive(Serialize)]
struct ServeRow {
    grammar: String,
    /// Words in the benchmark corpus (members + mutants).
    corpus_words: usize,
    /// Total characters across the corpus (the throughput denominator).
    corpus_chars: usize,
    /// Corpus words the grammar accepts (identical for both engines).
    accepted_words: usize,
    /// Interned item-set states of the compiled derivative automaton.
    automaton_states: usize,
    /// Interned stack symbols of the compiled derivative automaton.
    stack_symbols: usize,
    /// Size of the serialized artifact document in bytes.
    artifact_bytes: usize,
    /// Throughput of the uncompiled `VpgParser` (wall clock).
    uncompiled_chars_per_sec: f64,
    /// Throughput of `CompiledGrammar::recognize_word` (wall clock).
    compiled_chars_per_sec: f64,
    /// `compiled_chars_per_sec / uncompiled_chars_per_sec` (wall clock).
    speedup: f64,
    /// Raw strings in the raw corpus (generated members + mutants).
    raw_inputs: usize,
    /// Total characters across the raw corpus.
    raw_chars: usize,
    /// Raw strings the compiled artifact accepts.
    accepted_raws: usize,
    /// Throughput of raw-string `CompiledGrammar::recognize` (wall clock).
    raw_chars_per_sec: f64,
}

#[derive(Serialize)]
struct ServeBenchReport {
    seed: u64,
    samples: usize,
    budget: usize,
    passes: usize,
    rows: Vec<ServeRow>,
}

fn main() {
    let args = Args::parse_or_exit(USAGE, &["seed", "samples", "passes"], &["check", "json"]);
    let fail = |e: String| -> ! { usage_error(USAGE, e) };
    let seed = args.seed(DEFAULT_SEED).unwrap_or_else(|e| fail(e));
    let samples: usize = args.parsed("samples", DEFAULT_SAMPLES).unwrap_or_else(|e| fail(e));
    let passes: usize = args.parsed("passes", DEFAULT_PASSES).unwrap_or_else(|e| fail(e));
    let selection = args.languages().unwrap_or_else(|e| fail(e));
    let tracked_config =
        seed == DEFAULT_SEED && samples == DEFAULT_SAMPLES && passes == DEFAULT_PASSES;

    let mut rows = Vec::new();
    let mut check_failed = false;
    for lang in &selection.languages {
        let name = lang.name();
        eprintln!("learning {name} …");
        let learned = learn_plain(lang.as_ref()).as_learned_language();
        let compiled = learned.compile().expect("learned grammars compile");
        let parser = VpgParser::new(learned.vpg());

        let words = sample_corpus(learned.vpg(), seed, DEFAULT_BUDGET, samples);
        let corpus_chars: usize = words.iter().map(|w| w.chars().count()).sum();

        // Correctness first: the compiled artifact must agree with the
        // uncompiled parser on every corpus word, before and after a
        // serialization round trip.
        let artifact_json = compiled.to_json();
        let reloaded = CompiledGrammar::from_json(&artifact_json).expect("round trip");
        let mut accepted_words = 0usize;
        for w in &words {
            let expect = parser.recognize(w);
            let got = compiled.recognize_word(w);
            let reloaded_got = reloaded.recognize_word(w);
            if got != expect || reloaded_got != expect {
                eprintln!(
                    "FAIL {name}: engines disagree on {w:?} (uncompiled {expect}, compiled {got}, \
                     reloaded {reloaded_got})"
                );
                check_failed = true;
            }
            accepted_words += usize::from(expect);
        }

        // Throughput: repeated full passes over a corpus.
        let time_passes = |inputs: &[String], f: &dyn Fn(&str) -> bool| -> f64 {
            let chars: usize = inputs.iter().map(|w| w.chars().count()).sum();
            let start = Instant::now();
            let mut live = 0usize;
            for _ in 0..passes {
                for w in inputs {
                    live += usize::from(f(w));
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(live);
            (chars * passes) as f64 / elapsed.max(1e-9)
        };
        let uncompiled_cps = time_passes(&words, &|w| parser.recognize(w));
        let compiled_cps = time_passes(&words, &|w| compiled.recognize_word(w));

        // Raw-input agreement: the three raw entry points share one scan and
        // must give one verdict on every raw string.
        let raws = raw_corpus(lang.as_ref(), seed, DEFAULT_BUDGET, samples);
        for r in &raws {
            for (engine, g) in [("compiled", &compiled), ("reloaded", &reloaded)] {
                let verdicts = [g.recognize(r), g.converted_word(r).is_some(), g.parse(r).is_ok()];
                if verdicts.contains(&!verdicts[0]) {
                    eprintln!(
                        "FAIL {name}: {engine} raw entry points disagree on {r:?} \
                         (recognize, converted_word, parse: {verdicts:?})"
                    );
                    check_failed = true;
                }
            }
        }

        let raw_cps = time_passes(&raws, &|r| compiled.recognize(r));
        let accepted_raws = raws.iter().filter(|r| compiled.recognize(r)).count();

        rows.push(ServeRow {
            grammar: name.to_string(),
            corpus_words: words.len(),
            corpus_chars,
            accepted_words,
            automaton_states: compiled.table_view().state_count(),
            stack_symbols: compiled.table_view().stack_symbol_count(),
            artifact_bytes: artifact_json.len(),
            uncompiled_chars_per_sec: uncompiled_cps,
            compiled_chars_per_sec: compiled_cps,
            speedup: compiled_cps / uncompiled_cps.max(1e-9),
            raw_inputs: raws.len(),
            raw_chars: raws.iter().map(|r| r.chars().count()).sum(),
            accepted_raws,
            raw_chars_per_sec: raw_cps,
        });
    }

    println!("Serving throughput: compiled artifact vs uncompiled parser (seed {seed})");
    println!();
    println!("grammar\twords\tchars\tstates\tuncompiled MB/s\tcompiled MB/s\tspeedup\traw MB/s");
    for r in &rows {
        println!(
            "{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}x\t{:.1}",
            r.grammar,
            r.corpus_words,
            r.corpus_chars,
            r.automaton_states,
            r.uncompiled_chars_per_sec / 1e6,
            r.compiled_chars_per_sec / 1e6,
            r.speedup,
            r.raw_chars_per_sec / 1e6,
        );
    }

    let report = ServeBenchReport { seed, samples, budget: DEFAULT_BUDGET, passes, rows };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    write_tracked_report(&[(JSON_REPORT_PATH, &json)], selection.full_set, tracked_config);
    if args.switch("json") {
        println!("{json}");
    }

    if args.switch("check") {
        if check_failed {
            std::process::exit(1);
        }
        println!(
            "check passed: compiled, reloaded and uncompiled engines agree on every word, and \
             raw recognize, converted_word and parse agree on every raw string"
        );
    }
}
