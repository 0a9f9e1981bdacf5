//! Multi-grammar serving daemon under concurrent load, with exact
//! observability attribution.
//!
//! For each selected Table-1 language the binary (1) learns the language
//! through a [`vstar_oracles::CountingOracle`], (2) compiles the learned
//! grammar and publishes it into a [`vstar_serve::GrammarRegistry`], then
//! (3) starts a real [`vstar_serve::Daemon`] on an ephemeral port and drives
//! it with `--clients` concurrent client threads. Every client streams the
//! deterministic raw corpus of every grammar (oracle-generated members and a
//! one-character mutant of each) through `B`/`D`/`E` sessions
//! (chunk boundaries are client-seeded and may split UTF-8 codepoints),
//! issues the same raw strings as one-shot `Q` queries, and after a barrier the
//! first client hot-reloads the first grammar (`P`) before a second streaming
//! wave proves the swap: same artifact bytes, same fingerprint, version 2.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vstar_bench --bin daemon -- \
//!     [grammar ...] [--seed N] [--clients N] [--samples N] [--check] [--json]
//! ```
//!
//! Defaults: all five grammars, `--seed 42`, `--clients 4`, `--samples 30`;
//! corpus members are generated with a budget of 24. A full-set run at the
//! default configuration rewrites the
//! tracked `BENCH_daemon.json`. Corpus shapes, verdicts, request/byte counts
//! and artifact fingerprints are deterministic for a fixed seed; request
//! latency quantiles are wall-clock and go to **stderr** only (the
//! `BENCH_trace.json` convention).
//!
//! `--check` turns the run into the CI observability gate: the process exits
//! nonzero when any daemon verdict disagrees with local recognition, when the
//! per-connection metrics rows do not sum exactly to the per-grammar rows and
//! the registry grand totals, when the membership oracles saw any query after
//! learning finished (the serve path must be oracle-free), when the access
//! log does not hold one record per request, or when the `/healthz`,
//! `/grammars` and `/metrics` admin endpoints disagree with ground truth.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use vstar_bench::cli::{usage_error, write_tracked_report, Args};
use vstar_bench::{learn_plain, raw_corpus};
use vstar_oracles::{CountedLanguage, CountingOracle};
use vstar_parser::CompileLearned;
use vstar_serve::{AccessLog, Client, Daemon, GrammarRegistry};
use vstar_telemetry::{Counts, MetricsRegistry};

const JSON_REPORT_PATH: &str = "BENCH_daemon.json";

const DEFAULT_SEED: u64 = 42;
const DEFAULT_CLIENTS: usize = 4;
const DEFAULT_SAMPLES: usize = 30;
const DEFAULT_BUDGET: usize = 24;

const USAGE: &str =
    "daemon [grammar ...] [--seed N] [--clients N] [--samples N] [--check] [--json]";

/// One grammar's serving plan: the published artifact plus the deterministic
/// corpus and its locally precomputed expected verdicts.
struct Plan {
    name: String,
    /// Raw strings for both the streaming `B`/`D`/`E` and the one-shot `Q`
    /// path.
    raws: Vec<String>,
    /// Expected verdict of each raw string on either path (`recognize`).
    raw_expect: Vec<bool>,
    /// Canonical artifact document (used again for the hot reload).
    artifact_json: String,
    artifact_hash: u64,
    stats: vstar_parser::GrammarStats,
    learn_unique_queries: usize,
}

/// One grammar's deterministic row of `BENCH_daemon.json`.
#[derive(Serialize)]
struct DaemonRow {
    grammar: String,
    /// Raw strings in the corpus (members + mutants).
    corpus_words: usize,
    /// Expected accepts over one pass of the corpus, streamed or queried.
    accepted_query: usize,
    /// Corpus bytes one client sends in one pass, as `D` frames or as `Q`
    /// payload input.
    query_bytes: u64,
    /// Unique membership queries spent learning the grammar.
    learn_unique_queries: usize,
    /// Interned item-set states of the compiled derivative automaton.
    automaton_states: u64,
    /// Size of the canonical artifact document in bytes.
    artifact_bytes: usize,
    /// FNV-64 fingerprint of the canonical artifact document.
    artifact_hash: String,
    /// Registry version after the run (2 for the hot-reloaded grammar).
    final_version: u64,
}

/// The tracked machine-readable report. No wall-clock fields: reruns with
/// the same configuration are byte-identical.
#[derive(Serialize)]
struct DaemonBenchReport {
    seed: u64,
    clients: usize,
    samples: usize,
    budget: usize,
    rows: Vec<DaemonRow>,
    /// The hot-reloaded grammar (first of the selection).
    reload_grammar: String,
    /// Whether the reload installed a byte-identical artifact (it republishes
    /// the same canonical document, so this must be `true`).
    reload_hash_stable: bool,
    /// Registry swap generation after the run.
    final_generation: u64,
    /// Metrics grand totals across every connection and grammar.
    totals: Counts,
    /// `(grammar, connection)` metrics rows observed.
    connection_rows: usize,
    /// `"access"` records in the JSONL access log (one per request).
    access_records: usize,
    /// `"reload"` records in the JSONL access log.
    reload_records: usize,
}

/// Streams `input` into the open session as client-seeded chunks (1–7 bytes,
/// freely splitting UTF-8 sequences) and returns the daemon's verdict.
fn stream_input(client: &mut Client, input: &str, rng: &mut StdRng) -> bool {
    let bytes = input.as_bytes();
    let mut at = 0;
    while at < bytes.len() {
        let take = rng.gen_range(1..=7).min(bytes.len() - at);
        client.data(&bytes[at..at + take]).expect("data frame");
        at += take;
    }
    client.end().expect("end frame")
}

fn main() {
    let args = Args::parse_or_exit(USAGE, &["seed", "clients", "samples"], &["check", "json"]);
    let fail = |e: String| -> ! { usage_error(USAGE, e) };
    let seed = args.seed(DEFAULT_SEED).unwrap_or_else(|e| fail(e));
    let clients: usize = args.parsed("clients", DEFAULT_CLIENTS).unwrap_or_else(|e| fail(e));
    let samples: usize = args.parsed("samples", DEFAULT_SAMPLES).unwrap_or_else(|e| fail(e));
    if clients == 0 {
        fail("--clients must be at least 1".to_string());
    }
    let selection = args.languages().unwrap_or_else(|e| fail(e));
    let tracked_config =
        seed == DEFAULT_SEED && clients == DEFAULT_CLIENTS && samples == DEFAULT_SAMPLES;

    // Learn every grammar through its own counting oracle. The oracles stay
    // alive across the serving run: the gate re-reads them afterwards to
    // prove the daemon never touched a membership oracle.
    let langs = &selection.languages;
    let oracles: Vec<CountingOracle<'_>> =
        langs.iter().map(|l| CountingOracle::new(|s: &str| l.accepts(s))).collect();

    let registry = Arc::new(GrammarRegistry::new());
    let mut plans: Vec<Plan> = Vec::new();
    for (lang, oracle) in langs.iter().zip(&oracles) {
        let name = lang.name();
        eprintln!("learning {name} …");
        let counted = CountedLanguage::new(lang.as_ref(), oracle);
        let learned = learn_plain(&counted).as_learned_language();
        let learn_unique_queries = oracle.unique_queries();
        let compiled = learned.compile().expect("learned grammars compile");

        let raws = raw_corpus(lang.as_ref(), seed, DEFAULT_BUDGET, samples);
        let raw_expect: Vec<bool> = raws.iter().map(|r| compiled.recognize(r)).collect();

        let artifact_json = compiled.to_json();
        let artifact_hash = compiled.artifact_fingerprint();
        let stats = compiled.stats();
        registry.publish(name, compiled);
        plans.push(Plan {
            name: name.to_string(),
            raws,
            raw_expect,
            artifact_json,
            artifact_hash,
            stats,
            learn_unique_queries,
        });
    }
    let queries_after_learning: Vec<usize> = oracles.iter().map(|o| o.unique_queries()).collect();

    // The daemon itself, on an ephemeral port with an in-memory access log.
    let metrics = Arc::new(MetricsRegistry::new());
    let (access_log, _jsonl) = AccessLog::in_memory();
    let mut daemon = Daemon::start(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Arc::clone(&metrics),
        access_log.clone(),
    )
    .expect("daemon binds an ephemeral port");
    let addr = daemon.addr();
    eprintln!("daemon on {addr}: {} grammars, {clients} clients", plans.len());

    // Concurrent load: every client streams + queries every grammar's
    // corpus (wave 1), client 0 hot-reloads the first grammar behind a
    // barrier, and everyone re-streams that grammar on v2 (wave 2).
    let barrier = Barrier::new(clients);
    let mismatches = AtomicUsize::new(0);
    let plans_ref = &plans;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let barrier = &barrier;
            let mismatches = &mismatches;
            handles.push(scope.spawn(move || {
                let mut client =
                    Client::connect(addr, &format!("client-{c}")).expect("client connects");
                for (gi, plan) in plans_ref.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (c as u64).wrapping_mul(0x9e37_79b9) ^ ((gi as u64) << 32),
                    );
                    client.begin(&plan.name).expect("begin");
                    for (r, &expect) in plan.raws.iter().zip(&plan.raw_expect) {
                        if stream_input(&mut client, r, &mut rng) != expect {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                            eprintln!("MISMATCH client-{c} {} stream {r:?}", plan.name);
                        }
                    }
                    for (r, &expect) in plan.raws.iter().zip(&plan.raw_expect) {
                        if client.recognize(&plan.name, r).expect("query") != expect {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                            eprintln!("MISMATCH client-{c} {} query {r:?}", plan.name);
                        }
                    }
                }
                // Hot reload: republish the first grammar's canonical
                // artifact document. Same bytes, same fingerprint, v2.
                barrier.wait();
                let first = &plans_ref[0];
                if c == 0 {
                    let reply = client.publish(&first.name, &first.artifact_json).expect("publish");
                    assert!(reply.starts_with("ok v=2 "), "unexpected publish reply: {reply}");
                }
                barrier.wait();
                let reply = client.begin(&first.name).expect("begin v2");
                if !reply.starts_with("ok v=2 ") {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                    eprintln!("MISMATCH client-{c}: wave-2 begin got {reply:?}");
                }
                let mut rng = StdRng::seed_from_u64(seed ^ ((c as u64) << 17));
                for (r, &expect) in first.raws.iter().zip(&first.raw_expect) {
                    if stream_input(&mut client, r, &mut rng) != expect {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                        eprintln!("MISMATCH client-{c} {} wave-2 stream {r:?}", first.name);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("client thread");
        }
    });
    let mismatches = mismatches.into_inner();

    // Admin plane, read over the same framed protocol.
    let mut admin = Client::connect(addr, "admin-probe").expect("admin connects");
    let healthz = admin.admin("/healthz").expect("/healthz");
    let grammars_json = admin.admin("/grammars").expect("/grammars");
    let metrics_text = admin.admin("/metrics").expect("/metrics");
    drop(admin);

    let snapshot = metrics.snapshot();
    let records = access_log.records();
    let access_records = records.iter().filter(|r| r.kind == "access").count();
    let reload_records = records.iter().filter(|r| r.kind == "reload").count();
    let audit = registry.audit();

    // Expected grand totals, computed locally: wave 1 is (stream + query) per
    // grammar per client, wave 2 re-streams the first grammar per client —
    // each pass sends the same raw corpus. The admin probe issued no
    // recognition requests.
    let mut expect_totals = Counts::default();
    for (gi, plan) in plans.iter().enumerate() {
        let bytes: u64 = plan.raws.iter().map(|r| r.len() as u64).sum();
        let accepts = plan.raw_expect.iter().filter(|&&v| v).count() as u64;
        let passes = clients as u64 * if gi == 0 { 3 } else { 2 };
        expect_totals.requests += passes * plan.raws.len() as u64;
        expect_totals.bytes += passes * bytes;
        expect_totals.accepted += passes * accepts;
    }
    expect_totals.rejected = expect_totals.requests - expect_totals.accepted;

    let rows: Vec<DaemonRow> = plans
        .iter()
        .map(|p| DaemonRow {
            grammar: p.name.clone(),
            corpus_words: p.raws.len(),
            accepted_query: p.raw_expect.iter().filter(|&&v| v).count(),
            query_bytes: p.raws.iter().map(|r| r.len() as u64).sum(),
            learn_unique_queries: p.learn_unique_queries,
            automaton_states: p.stats.automaton_states,
            artifact_bytes: p.artifact_json.len(),
            artifact_hash: format!("{:016x}", p.artifact_hash),
            final_version: registry.get(&p.name).map_or(0, |e| e.version),
        })
        .collect();

    println!("Serving daemon under concurrent load (seed {seed}, {clients} clients)");
    println!();
    println!("grammar\twords\taccepts\tstates\tartifact-bytes\tversion");
    for r in &rows {
        println!(
            "{}\t{}\t{}\t{}\t{}\tv{}",
            r.grammar,
            r.corpus_words,
            r.accepted_query,
            r.automaton_states,
            r.artifact_bytes,
            r.final_version,
        );
    }
    println!(
        "totals: {} requests, {} bytes, {} accepted, {} rejected, {} errors across {} \
         connection rows",
        snapshot.totals.requests,
        snapshot.totals.bytes,
        snapshot.totals.accepted,
        snapshot.totals.rejected,
        snapshot.totals.errors,
        snapshot.connections.len(),
    );

    // Latency quantiles are wall-clock: stderr only, never in the report.
    eprintln!();
    eprintln!("request latency quantiles in µs (stderr only, excluded from determinism):");
    for row in metrics.latencies() {
        let q = row.latency_us;
        eprintln!(
            "  {:<10} {:<12} p50={:<6} p90={:<6} p99={:<6} max={:<6} n={}",
            row.grammar, row.connection, q.p50, q.p90, q.p99, q.max, q.count,
        );
    }

    let report = DaemonBenchReport {
        seed,
        clients,
        samples,
        budget: DEFAULT_BUDGET,
        rows,
        reload_grammar: plans[0].name.clone(),
        reload_hash_stable: audit.last().is_some_and(|a| a.old_hash == Some(a.new_hash)),
        final_generation: registry.generation(),
        totals: snapshot.totals,
        connection_rows: snapshot.connections.len(),
        access_records,
        reload_records,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    write_tracked_report(&[(JSON_REPORT_PATH, &json)], selection.full_set, tracked_config);
    if args.switch("json") {
        println!("{json}");
    }

    if args.switch("check") {
        let mut failed = false;
        let mut check = |ok: bool, what: &str| {
            if !ok {
                failed = true;
                eprintln!("FAIL: {what}");
            }
        };
        check(mismatches == 0, "daemon verdicts disagreed with local recognition");

        // Exact attribution: per-connection rows sum to per-grammar rows sum
        // to the grand totals, and all of it matches the local expectation.
        let mut by_connection = Counts::default();
        for row in &snapshot.connections {
            by_connection.absorb(&row.counts);
        }
        let mut by_grammar = Counts::default();
        for row in &snapshot.grammars {
            by_grammar.absorb(&row.counts);
        }
        check(by_connection == snapshot.totals, "connection rows do not sum to grand totals");
        check(by_grammar == snapshot.totals, "grammar rows do not sum to grand totals");
        check(
            snapshot.totals == expect_totals,
            &format!("grand totals {:?} != locally expected {:?}", snapshot.totals, expect_totals),
        );
        check(snapshot.totals.errors == 0, "the daemon recorded protocol errors");
        check(
            snapshot.connections.len() == clients * plans.len(),
            "unexpected (grammar, connection) row count",
        );

        // The serve path is oracle-free: not one membership query since
        // learning finished.
        for ((plan, oracle), &after_learn) in
            plans.iter().zip(&oracles).zip(&queries_after_learning)
        {
            check(
                oracle.unique_queries() == after_learn && oracle.total_queries() >= after_learn,
                &format!("{}: the serving run touched the membership oracle", plan.name),
            );
        }

        // One access record per request; the reload is mirrored and audited.
        check(
            access_records as u64 == snapshot.totals.requests,
            "access log does not hold one record per request",
        );
        check(reload_records == 1, "expected exactly one reload record");
        check(
            audit.len() == plans.len() + 1
                && audit.windows(2).all(|w| w[0].generation < w[1].generation),
            "audit trail is not one event per publish with increasing generations",
        );
        check(report.reload_hash_stable, "republished artifact changed its fingerprint");

        // Admin endpoints agree with ground truth.
        check(
            healthz == format!("ok generation={} grammars={}", registry.generation(), plans.len()),
            &format!("/healthz said {healthz:?}"),
        );
        let cards = serde_json::from_str(&grammars_json)
            .ok()
            .and_then(|d: serde::Value| d.as_array().map(|a| a.len()))
            .unwrap_or(0);
        check(cards == plans.len(), "/grammars card count is wrong");
        for p in &plans {
            check(
                grammars_json.contains(&format!("{:016x}", p.artifact_hash)),
                &format!("/grammars is missing {}'s artifact hash", p.name),
            );
            let grammar_requests: u64 = snapshot
                .grammars
                .iter()
                .filter(|g| g.grammar == p.name)
                .map(|g| g.counts.requests)
                .sum();
            check(
                metrics_text.contains(&format!(
                    "vstar_request_size_bytes_count{{grammar=\"{}\"}} {grammar_requests}",
                    p.name
                )),
                &format!("/metrics histogram count disagrees for {}", p.name),
            );
        }

        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: verdicts agree, per-connection counters sum exactly to the registry \
             grand totals, and the serve path stayed oracle-free"
        );
    }

    daemon.shutdown();
}
