//! The per-layer ledger of a traced run.
//!
//! Learn-layer figures come from an untraced and a traced refined learn of
//! each of the five languages: the untraced one gives the oracle and `Mat`
//! counts and the baseline time, the traced one (under
//! `vstar_telemetry::install`) gives each layer's self time from the
//! program's own spans and counters. Serving
//! layers are timed from outside around their public calls, on the artifacts
//! the untraced learn produced.

use std::hint::black_box;
use std::time::Instant;

use vstar_oracles::Language;
use vstar_telemetry::Timings;

use crate::daemon;
use crate::inputs::Inputs;
use crate::learn::{self, Learned, Mode, Served};
use crate::serve::{self, ServeRun, Tally};
use crate::stats::{median, FNV_OFFSET};
use crate::Ledger;

/// Seconds of each repeated throughput measurement.
const RATE_SECS: f64 = 0.4;
/// Repetitions of each one-shot set-up step (compile, artifact load).
const ONE_SHOT_REPS: usize = 3;
/// Seconds of the per-language serving pass.
const SERVE_SECS: f64 = 3.0;

/// Self time of the span at `path`, in seconds: its time minus the time of
/// its direct children.
fn self_secs(timings: &Timings, path: &str) -> f64 {
    let total = |p: &str| timings.spans.iter().find(|s| s.path == p).map_or(0, |s| s.nanos);
    let children: u64 = timings
        .spans
        .iter()
        .filter(|s| {
            s.path
                .strip_prefix(path)
                .and_then(|rest| rest.strip_prefix('/'))
                .is_some_and(|rest| !rest.contains('/'))
        })
        .map(|s| s.nanos)
        .sum();
    total(path).saturating_sub(children) as f64 / 1e9
}

fn subtree_secs(timings: &Timings, path: &str) -> f64 {
    timings.spans.iter().find(|s| s.path == path).map_or(0.0, |s| s.nanos as f64 / 1e9)
}

/// Median MB/s of `work` over repeated runs for about [`RATE_SECS`]; `work`
/// returns the bytes it processed.
fn rate(mut work: impl FnMut() -> u64) -> f64 {
    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed().as_secs_f64() < RATE_SECS {
        let t = Instant::now();
        let bytes = work();
        rates.push(bytes as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    median(&rates)
}

/// Runs every layer measurement and adds it to `ledger`.
pub fn run(ledger: &mut Ledger, langs: &[Box<dyn Language>], inputs: &Inputs, seed: u64) {
    // Each language is learned twice with refinement, untraced (the counts
    // and the baseline time) and under `vstar_telemetry::install` (per-layer
    // self times from the program's spans). Which of the two runs first
    // alternates from language to language, so host drift between the two
    // falls on both sides of `telemetry.overhead`.
    let mut learned: Vec<Learned> = Vec::new();
    let (mut untraced_secs, mut traced_secs) = (0.0, 0.0);
    let mut layer_secs = [0.0f64; 7];
    let (mut token_queries, mut rounds, mut campaigns, mut counterexamples) = (0, 0, 0, 0);
    for (i, lang) in langs.iter().enumerate() {
        let untraced_first = (i % 2 == 0).then(|| learn::learn(lang.as_ref(), Mode::Refined));
        let guard = vstar_telemetry::install();
        let traced = learn::learn(lang.as_ref(), Mode::Refined);
        let report = guard.finish();
        let untraced = untraced_first.unwrap_or_else(|| learn::learn(lang.as_ref(), Mode::Refined));
        untraced_secs += untraced.secs;
        traced_secs += traced.secs;
        ledger.expect_equal(
            &format!("traced queries of {}", traced.name),
            traced.queries,
            untraced.queries,
        );
        learned.push(untraced);
        let t = &report.timings;
        for (slot, secs) in layer_secs.iter_mut().zip([
            self_secs(t, "learn/token-inference"),
            self_secs(t, "learn/vpa-learning/row-fill"),
            self_secs(t, "learn/vpa-learning/hypothesis-construction"),
            self_secs(t, "learn/vpa-learning/ce-processing"),
            self_secs(t, "learn/pool-build"),
            self_secs(t, "learn/extraction"),
            subtree_secs(t, "learn/vpa-learning/pool-equivalence"),
        ]) {
            *slot += secs;
        }
        let facts = &report.facts;
        token_queries += facts.subtree_counter("learn/token-inference", "query.oracle.miss");
        rounds += facts.counter("learner.rounds");
        campaigns += facts.counter("refine.campaigns");
        counterexamples += facts.counter("refine.counterexamples_replayed");
    }

    let sum = |f: fn(&Learned) -> u64| learned.iter().map(f).sum::<u64>();
    let (lookups, hits) = (sum(|l| l.mat_lookups), sum(|l| l.mat_hits));
    // The counting oracle reaches `accepts` only on a cache miss, so its
    // calls are the unique queries.
    ledger.count("oracles.calls", "count", sum(|l| l.queries));
    ledger.metric("oracles.s", "s", learned.iter().map(|l| l.oracle_secs).sum());
    ledger.count("mat.lookups", "count", lookups);
    ledger.count("mat.hits", "count", hits);
    ledger.metric("mat.hit_ratio", "ratio", hits as f64 / lookups.max(1) as f64);
    ledger.count("learn.states", "count", sum(|l| l.states));
    for l in &learned {
        ledger.metric(&format!("learn_s.{}", l.name), "s", l.secs);
        ledger.count(&format!("learn_queries.{}", l.name), "count", l.queries);
    }
    for (name, secs) in [
        "token_inference.s",
        "row_fill.s",
        "hypothesis.s",
        "ce_processing.s",
        "pool_build.s",
        "extraction.s",
        "refine.s",
    ]
    .into_iter()
    .zip(layer_secs)
    {
        ledger.metric(name, "s", secs);
    }
    ledger.count("token_inference.queries", "count", token_queries);
    ledger.count("learner.rounds", "count", rounds);
    ledger.count("refine.campaigns", "count", campaigns);
    ledger.count("refine.counterexamples", "count", counterexamples);
    ledger.metric("learn_s", "s", untraced_secs);
    ledger.metric("telemetry.overhead", "ratio", traced_secs / untraced_secs);

    // Compile and artifact load, each the median of a few repetitions.
    let mut served: Vec<Served> = Vec::new();
    let (mut compile_secs, mut load_secs) = (0.0, 0.0);
    for l in &learned {
        let mut reps: Vec<Served> = (0..ONE_SHOT_REPS).map(|_| learn::serve(l)).collect();
        compile_secs += median(&reps.iter().map(|s| s.compile_secs).collect::<Vec<_>>());
        load_secs += median(&reps.iter().map(|s| s.load_secs).collect::<Vec<_>>());
        served.push(reps.pop().expect("at least one repetition"));
    }
    ledger.metric("compile_ms", "ms", compile_secs * 1e3);
    ledger.metric("artifact.load_ms", "ms", load_secs * 1e3);
    ledger.count("artifact.bytes", "count", served.iter().map(|s| s.artifact.len() as u64).sum());

    serving_layers(ledger, &served, inputs);
    daemon_layers(ledger, &served, inputs, seed);
}

/// Token scan, table walk, session and batch throughput on the short inputs,
/// then per-language goodput and the verdict tallies.
fn serving_layers(ledger: &mut Ledger, served: &[Served], inputs: &Inputs) {
    let raw: Vec<(&Served, &str)> =
        inputs.short.iter().map(|c| (&served[c.lang], c.text.as_str())).collect();
    let raw_bytes: u64 = raw.iter().map(|(_, s)| s.len() as u64).sum();
    ledger.metric(
        "scan.mbps",
        "MB/s",
        rate(|| {
            for (g, s) in &raw {
                black_box(g.grammar.converted_word(black_box(s)));
            }
            raw_bytes
        }),
    );
    let words: Vec<(&Served, String)> =
        raw.iter().filter_map(|(g, s)| g.grammar.converted_word(s).map(|w| (*g, w))).collect();
    let word_bytes: u64 = words.iter().map(|(_, w)| w.len() as u64).sum();
    ledger.metric(
        "walk.mbps",
        "MB/s",
        rate(|| {
            for (g, w) in &words {
                black_box(g.grammar.recognize_word(black_box(w)));
            }
            word_bytes
        }),
    );
    ledger.metric(
        "session.mbps",
        "MB/s",
        rate(|| {
            for (g, w) in &words {
                let mut session = g.grammar.session();
                for chunk in w.as_bytes().chunks(5) {
                    session.push_bytes(black_box(chunk));
                }
                black_box(session.finish());
            }
            word_bytes
        }),
    );

    // Batch against single-thread recognition of the same inputs, one
    // grammar at a time as `recognize_batch` takes them.
    let by_grammar: Vec<Vec<&str>> = (0..served.len())
        .map(|i| inputs.short.iter().filter(|c| c.lang == i).map(|c| c.text.as_str()).collect())
        .collect();
    let single = rate(|| {
        for (g, batch) in served.iter().zip(&by_grammar) {
            for s in batch {
                black_box(g.grammar.recognize(black_box(s)));
            }
        }
        raw_bytes
    });
    let batch = rate(|| {
        for (g, batch) in served.iter().zip(&by_grammar) {
            black_box(g.grammar.recognize_batch(black_box(batch)));
        }
        raw_bytes
    });
    ledger.metric("batch.mbps", "MB/s", batch);
    ledger.metric("batch.speedup", "ratio", batch / single);

    let mut run = ServeRun::new(inputs);
    run.run_until(served, inputs, SERVE_SECS, true);
    ledger.expect_true("stable serving verdicts", run.stable());
    tallies(ledger, "short", run.short.tally(&inputs.short));
    tallies(ledger, "long", run.docs.tally(&inputs.docs));
    ledger.metric("document_goodput_mbps", "MB/s", run.docs.goodput_mbps(&inputs.docs, None));
    ledger.metric("document_p50_ms", "ms", run.docs.latency(0.5) * 1e3);
    ledger.metric("document_p90_ms", "ms", run.docs.latency(0.9) * 1e3);
    for (i, g) in served.iter().enumerate() {
        let short = run.short.goodput_mbps(&inputs.short, Some(i));
        let docs = run.docs.goodput_mbps(&inputs.docs, Some(i));
        ledger.metric(&format!("recognize_goodput_mbps.{}", g.name), "MB/s", short);
        ledger.metric(&format!("document_goodput_mbps.{}", g.name), "MB/s", docs);
    }
    ledger.attempt(run.checked(), run.wrong(inputs));
}

fn tallies(ledger: &mut Ledger, class: &str, tally: Tally) {
    ledger.count(&format!("verdict.false_reject.{class}"), "count", tally.false_reject);
    ledger.count(&format!("verdict.false_accept.{class}"), "count", tally.false_accept);
}

/// Round trips of each request kind, measured apart on one connection.
fn daemon_layers(ledger: &mut Ledger, served: &[Served], inputs: &Inputs, seed: u64) {
    let reference = serve::verdicts(served, &inputs.short);
    let run = daemon::probe(served, inputs, &reference, seed ^ FNV_OFFSET);
    let p50_ms = |v: &[f64]| median(v) * 1e3;
    ledger.metric("daemon.query_p50_ms", "ms", p50_ms(&run.query));
    ledger.metric("daemon.stream_p50_ms", "ms", p50_ms(&run.stream));
    ledger.metric("daemon.admin_p50_ms", "ms", p50_ms(&run.admin));
    ledger.metric("daemon.publish_p50_ms", "ms", p50_ms(&run.publish));
    ledger.count("daemon.stream_mismatch", "count", run.stream_wrong);
    ledger.metric(
        "daemon.rss_kb_per_kreq",
        "KiB/kreq",
        run.rss_growth_kib as f64 / (run.completed() as f64 / 1e3),
    );
    ledger.count("daemon.log_records", "count", run.log_records);
    ledger.count("daemon.metrics_match", "count", u64::from(run.metrics_match));
    ledger.expect_true("daemon /metrics totals equal the client counts", run.metrics_match);
    ledger.expect_true("no daemon request failed", run.errors == 0);
    ledger.expect_true("daemon Q verdicts equal in-process verdicts", run.query_mismatch == 0);
    ledger.attempt(run.attempted(), run.failed());
}
