//! End-to-end daemon tests over real sockets: concurrent multi-grammar
//! serving, hot reload with pinned streaming sessions, admin endpoints,
//! stream/query agreement on a token-mode grammar, chunk boundaries that
//! split codepoints, the streamed-input cap and seeded random frame
//! streams, all driven through the framed protocol.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vstar_oracles::{Language, Lisp};
use vstar_parser::{CompileLearned, CompiledGrammar};
use vstar_serve::{
    encode_named, op, read_frame, AccessLog, Client, ClientError, Daemon, GrammarRegistry,
    MAX_FRAME_LEN,
};
use vstar_telemetry::MetricsRegistry;
use vstar_vpl::grammar::figure1_grammar;
use vstar_vpl::{Tagging, VpgBuilder};

fn dyck() -> CompiledGrammar {
    let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
    let mut b = VpgBuilder::new(tagging);
    let s = b.nonterminal("S");
    b.match_rule(s, '(', s, ')', s);
    b.empty_rule(s);
    b.linear_rule(s, 'x', s);
    CompiledGrammar::from_vpg(&b.build(s).unwrap()).unwrap()
}

/// A grammar whose word alphabet contains 3-byte UTF-8 characters (the
/// private-use markers token mode uses): derives exactly `⊳τ*⊲` shapes.
fn multibyte() -> (CompiledGrammar, char, char) {
    let call = vstar::tokenizer::call_marker(0);
    let ret = vstar::tokenizer::return_marker(0);
    let tagging = Tagging::from_pairs([(call, ret)]).unwrap();
    let mut b = VpgBuilder::new(tagging);
    let s = b.nonterminal("S");
    let e = b.nonterminal("E");
    b.match_rule(s, call, e, ret, e);
    b.linear_rule(e, 'τ', e);
    b.empty_rule(e);
    (CompiledGrammar::from_vpg(&b.build(s).unwrap()).unwrap(), call, ret)
}

fn start_daemon() -> (Daemon, Arc<GrammarRegistry>, Arc<MetricsRegistry>, AccessLog) {
    let registry = Arc::new(GrammarRegistry::new());
    registry.publish("fig1", CompiledGrammar::from_vpg(&figure1_grammar()).unwrap());
    registry.publish("dyck", dyck());
    let metrics = Arc::new(MetricsRegistry::new());
    let (access_log, _) = AccessLog::in_memory();
    let daemon = Daemon::start(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Arc::clone(&metrics),
        access_log.clone(),
    )
    .unwrap();
    (daemon, registry, metrics, access_log)
}

#[test]
fn concurrent_connections_serve_multiple_grammars_with_exact_attribution() {
    let (daemon, _registry, metrics, access_log) = start_daemon();
    let addr = daemon.addr();

    let cases: [(&str, &str, bool); 4] = [
        ("fig1", "agcdcdhbcd", true),
        ("fig1", "cdx", false),
        ("dyck", "(x(x))x", true),
        ("dyck", ")(", false),
    ];
    std::thread::scope(|scope| {
        for t in 0..4 {
            let cases = &cases;
            scope.spawn(move || {
                let mut client = Client::connect(addr, &format!("t{t}")).unwrap();
                for &(grammar, input, expect) in cases {
                    // One-shot path.
                    assert_eq!(client.recognize(grammar, input).unwrap(), expect);
                    // Streaming path, re-beginning per input.
                    client.begin(grammar).unwrap();
                    for chunk in input.as_bytes().chunks(3) {
                        client.data(chunk).unwrap();
                    }
                    assert_eq!(client.end().unwrap(), expect, "{grammar} {input:?}");
                }
            });
        }
    });

    // Attribution is exact: 4 threads × 4 cases × 2 paths = 32 requests,
    // partitioned 8-per-(grammar, connection) cell, and the per-connection
    // rows sum to the grammar rows sum to the grand totals.
    let snap = metrics.snapshot();
    assert_eq!(snap.totals.requests, 32);
    assert_eq!(snap.totals.accepted, 16);
    assert_eq!(snap.totals.rejected, 16);
    assert_eq!(snap.totals.errors, 0);
    assert_eq!(snap.connections.len(), 8, "2 grammars × 4 labelled connections");
    for row in &snap.connections {
        assert_eq!(row.counts.requests, 4, "{row:?}");
    }
    let mut by_connection = vstar_telemetry::Counts::default();
    for row in &snap.connections {
        by_connection.absorb(&row.counts);
    }
    let mut by_grammar = vstar_telemetry::Counts::default();
    for row in &snap.grammars {
        by_grammar.absorb(&row.counts);
    }
    assert_eq!(by_connection, snap.totals);
    assert_eq!(by_grammar, snap.totals);
    // One access record per request, under the chosen labels.
    let records = access_log.records();
    assert_eq!(records.len(), 32);
    assert!(records.iter().all(|r| r.kind == "access" && r.name.starts_with('t')));
}

#[test]
fn hot_reload_pins_open_sessions_and_audits_the_swap() {
    let (daemon, registry, _metrics, access_log) = start_daemon();
    let addr = daemon.addr();

    let mut streamer = Client::connect(addr, "streamer").unwrap();
    let ok = streamer.begin("fig1").unwrap();
    assert!(ok.starts_with("ok v=1 "), "{ok}");
    streamer.data(b"agcd").unwrap();

    // Mid-stream, hot-reload "fig1" to a *different* language.
    let mut admin = Client::connect(addr, "admin").unwrap();
    let reply = admin.publish("fig1", &dyck().to_json()).unwrap();
    assert!(reply.starts_with("ok v=2 "), "{reply}");

    // The open session still runs the pinned v1 automaton...
    streamer.data(b"cdhbcd").unwrap();
    assert!(streamer.end().unwrap(), "pinned session must finish on v1");
    // ...while a fresh begin and one-shot queries see v2.
    let ok = streamer.begin("fig1").unwrap();
    assert!(ok.starts_with("ok v=2 "), "{ok}");
    streamer.data(b"(x)").unwrap();
    assert!(streamer.end().unwrap());
    assert!(admin.recognize("fig1", "(x)").unwrap());
    assert!(!admin.recognize("fig1", "agcdcdhbcd").unwrap());

    // The audit trail shows the swap with both fingerprints.
    let audit = registry.audit();
    assert_eq!(audit.len(), 3, "two seed publishes + one reload");
    let swap = &audit[2];
    assert_eq!(swap.grammar, "fig1");
    assert_eq!(swap.version, 2);
    assert!(swap.old_hash.is_some());
    assert_ne!(swap.old_hash, Some(swap.new_hash));
    // The reload is mirrored into the access log's journal schema.
    let reloads: Vec<_> = access_log.records().into_iter().filter(|r| r.kind == "reload").collect();
    assert_eq!(reloads.len(), 1);
    assert_eq!(reloads[0].path, "fig1");
    assert_eq!(reloads[0].fields.get("version"), Some(&2));
    assert_eq!(reloads[0].fields.get("new_hash"), Some(&swap.new_hash));
}

#[test]
fn concurrent_publishes_mirror_the_audit_trail_in_generation_order() {
    let (daemon, registry, _metrics, access_log) = start_daemon();
    let addr = daemon.addr();
    let artifacts =
        [dyck().to_json(), CompiledGrammar::from_vpg(&figure1_grammar()).unwrap().to_json()];
    std::thread::scope(|scope| {
        for t in 0..4 {
            let artifacts = &artifacts;
            scope.spawn(move || {
                let mut admin = Client::connect(addr, &format!("admin{t}")).unwrap();
                for round in 0..16 {
                    let name = if round % 2 == 0 { "fig1" } else { "shared" };
                    let reply = admin.publish(name, &artifacts[(t + round) % 2]).unwrap();
                    assert!(reply.starts_with("ok v="), "{reply}");
                }
            });
        }
    });

    // The two seed publishes went straight to the registry; every publish
    // through the daemon is mirrored once, as its own audit event, in the
    // trail's order.
    let audit = registry.audit();
    assert_eq!(audit.len(), 2 + 4 * 16);
    assert!(audit.windows(2).all(|w| w[0].generation < w[1].generation), "{audit:?}");
    let mirrored: Vec<_> = access_log
        .records()
        .into_iter()
        .filter(|r| r.kind == "reload")
        .map(|r| {
            let field = |key: &str| r.fields.get(key).copied();
            (field("generation"), r.path, field("version"), field("old_hash"), field("new_hash"))
        })
        .collect();
    let expected: Vec<_> = audit[2..]
        .iter()
        .map(|a| {
            (Some(a.generation), a.grammar.clone(), Some(a.version), a.old_hash, Some(a.new_hash))
        })
        .collect();
    assert_eq!(mirrored, expected);
}

#[test]
fn admin_endpoints_expose_health_metrics_and_grammar_cards() {
    let (daemon, registry, _metrics, _log) = start_daemon();
    let mut client = Client::connect(daemon.addr(), "admin").unwrap();

    let health = client.admin("/healthz").unwrap();
    assert_eq!(health, "ok generation=2 grammars=2");

    client.recognize("fig1", "cd").unwrap();
    client.recognize("dyck", "bogus!").unwrap();
    let metrics_text = client.admin("/metrics").unwrap();
    assert!(metrics_text.contains("# TYPE vstar_requests_total counter"));
    assert!(metrics_text.contains("vstar_requests_total{grammar=\"fig1\",connection=\"admin\"} 1"));
    assert!(metrics_text
        .contains("vstar_requests_rejected_total{grammar=\"dyck\",connection=\"admin\"} 1"));
    assert!(metrics_text.contains("vstar_request_latency_microseconds_count{grammar=\"fig1\"} 1"));

    let grammars = client.admin("/grammars").unwrap();
    let doc = serde_json::from_str(&grammars).unwrap();
    let cards = doc.as_array().unwrap();
    assert_eq!(cards.len(), 2);
    let fig1 = cards.iter().find(|c| c.get("name").unwrap().as_str() == Some("fig1")).unwrap();
    let entry = registry.get("fig1").unwrap();
    assert_eq!(fig1.get("version").unwrap().as_u64(), Some(1));
    assert_eq!(
        fig1.get("artifact_hash").unwrap().as_str(),
        Some(format!("{:016x}", entry.hash).as_str())
    );
    let stats = fig1.get("stats").unwrap();
    assert_eq!(
        stats.get("automaton_states").unwrap().as_u64(),
        Some(entry.grammar.stats().automaton_states)
    );
    assert_eq!(stats.get("mode").unwrap().as_str(), Some("characters"));

    // Unknown endpoints and grammars are server errors, not hangs.
    match client.admin("/nope") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("unknown-endpoint"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    match client.recognize("missing", "x") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("unknown-grammar"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
}

/// Stream a word containing 3-byte characters through the daemon, split at *every* byte position (including
/// mid-codepoint), and require the verdict to match whole-word recognition.
#[test]
fn chunk_boundaries_mid_codepoint_never_change_verdicts() {
    let (grammar, call, ret) = multibyte();
    let registry = Arc::new(GrammarRegistry::new());
    registry.publish("mb", grammar);
    let metrics = Arc::new(MetricsRegistry::new());
    let (access_log, _) = AccessLog::in_memory();
    let daemon =
        Daemon::start("127.0.0.1:0", Arc::clone(&registry), Arc::clone(&metrics), access_log)
            .unwrap();

    let member = format!("{call}τ{ret}");
    let non_member = format!("{call}τ{ret}{ret}");
    let entry = registry.get("mb").unwrap();

    let mut client = Client::connect(daemon.addr(), "splitter").unwrap();
    client.begin("mb").unwrap();
    let mut requests = 0u64;
    for (input, expect) in [(&member, true), (&non_member, false)] {
        let bytes = input.as_bytes();
        assert_eq!(entry.grammar.recognize_word(input), expect);
        // Every single split point: [..i] then [i..].
        for i in 0..=bytes.len() {
            client.data(&bytes[..i]).unwrap();
            client.data(&bytes[i..]).unwrap();
            assert_eq!(client.end().unwrap(), expect, "split at byte {i} of {input:?}");
            requests += 1;
        }
        // And one byte at a time.
        for b in bytes {
            client.data(std::slice::from_ref(b)).unwrap();
        }
        assert_eq!(client.end().unwrap(), expect, "byte-at-a-time {input:?}");
        requests += 1;
    }
    // A dangling partial codepoint at end-of-input must reject, not panic.
    client.data(&member.as_bytes()[..member.len() - 1]).unwrap();
    assert!(!client.end().unwrap());
    requests += 1;

    let snap = metrics.snapshot();
    assert_eq!(snap.totals.requests, requests);
    assert_eq!(snap.totals.errors, 0);
}

/// A learned token-mode grammar: `B D… E` and `Q` decide the same raw bytes,
/// so they give the same verdict on members and mutants alike, however the
/// stream is chunked.
#[test]
fn streams_and_queries_agree_on_a_token_mode_grammar() {
    let lang = Lisp::new();
    let oracle = |s: &str| lang.accepts(s);
    let mat = vstar::Mat::new(&oracle);
    let result = vstar::VStar::new(vstar::VStarConfig::default())
        .learn(&mat, &lang.alphabet(), &lang.seeds())
        .unwrap();
    let compiled = result.compile().unwrap();
    assert_eq!(compiled.stats().mode, "tokens");
    let registry = Arc::new(GrammarRegistry::new());
    registry.publish("lisp", compiled);
    let metrics = Arc::new(MetricsRegistry::new());
    let (access_log, _) = AccessLog::in_memory();
    let daemon = Daemon::start("127.0.0.1:0", Arc::clone(&registry), metrics, access_log).unwrap();

    let mut rng = StdRng::seed_from_u64(16);
    let mut corpus = lang.seeds();
    corpus.extend(lang.generate_corpus(&mut rng, 14, 30));
    let alphabet = lang.alphabet();
    for k in 0..corpus.len() {
        let mut mutant: Vec<char> = corpus[k].chars().collect();
        if !mutant.is_empty() {
            let i = rng.gen_range(0..mutant.len());
            mutant[i] = alphabet[rng.gen_range(0..alphabet.len())];
            corpus.push(mutant.into_iter().collect());
        }
    }

    let mut client = Client::connect(daemon.addr(), "agree").unwrap();
    client.begin("lisp").unwrap();
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for input in &corpus {
        let query = client.recognize("lisp", input).unwrap();
        let mut rest = input.as_bytes();
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(rng.gen_range(1..=4).min(rest.len()));
            client.data(chunk).unwrap();
            rest = tail;
        }
        assert_eq!(client.end().unwrap(), query, "stream and query disagree on {input:?}");
        if query {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(accepted >= 20 && rejected >= 5, "{accepted} accepted, {rejected} rejected");
}

/// A streamed input may hold at most `MAX_FRAME_LEN` bytes: one byte more
/// ends in `-input-too-large`, counted on the grammar's cell, and the
/// session keeps serving the next input.
#[test]
fn streams_past_the_frame_cap_error_and_the_session_survives() {
    let (daemon, _registry, metrics, access_log) = start_daemon();
    let mut client = Client::connect(daemon.addr(), "big").unwrap();
    client.begin("fig1").unwrap();
    let chunk = vec![b'x'; 1 << 20];
    let stream_cap = |client: &mut Client| {
        for _ in 0..MAX_FRAME_LEN / chunk.len() {
            client.data(&chunk).unwrap();
        }
    };

    // Exactly the cap is an ordinary input.
    stream_cap(&mut client);
    assert!(!client.end().unwrap());

    // One byte more errors, and nothing past the cap is kept.
    stream_cap(&mut client);
    client.data(b"x").unwrap();
    client.data(b"cd").unwrap();
    match client.end() {
        Err(ClientError::Server(msg)) => assert_eq!(msg, "input-too-large"),
        other => panic!("expected input-too-large, got {other:?}"),
    }

    // The session was reset and still serves, as does the connection.
    client.data(b"cd").unwrap();
    assert!(client.end().unwrap());
    assert!(client.recognize("fig1", "cd").unwrap());

    let snap = metrics.snapshot();
    let fig1 = snap.connections.iter().find(|r| r.grammar == "fig1").unwrap();
    assert_eq!(fig1.counts.errors, 1);
    assert_eq!(fig1.counts.requests, 3);
    assert_eq!(access_log.records().len(), 3, "the errored input leaves no access record");
}

#[test]
fn protocol_errors_are_counted_and_survivable() {
    let (daemon, _registry, metrics, _log) = start_daemon();
    let mut client = Client::connect(daemon.addr(), "errs").unwrap();

    // End without a session.
    match client.end() {
        Err(ClientError::Server(msg)) => assert!(msg.contains("no-session"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Unknown grammar on begin.
    match client.begin("ghost") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("unknown-grammar"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Late hello (after the first request) and bad opcodes, driven over a
    // raw stream with the public protocol helpers.
    {
        let mut raw = std::net::TcpStream::connect(daemon.addr()).unwrap();
        let query = vstar_serve::encode_named(vstar_serve::op::QUERY, "fig1", b"cd");
        vstar_serve::write_frame(&mut raw, &query).unwrap();
        let reply = vstar_serve::read_frame(&mut raw).unwrap().unwrap();
        assert_eq!(reply, b"+accept");
        let mut hello = vec![vstar_serve::op::HELLO];
        hello.extend_from_slice(b"late");
        vstar_serve::write_frame(&mut raw, &hello).unwrap();
        let reply = vstar_serve::read_frame(&mut raw).unwrap().unwrap();
        assert!(reply.starts_with(b"-late-hello"), "{reply:?}");
        vstar_serve::write_frame(&mut raw, &[0xff]).unwrap();
        let reply = vstar_serve::read_frame(&mut raw).unwrap().unwrap();
        assert!(reply.starts_with(b"-bad-opcode"), "{reply:?}");
    }
    // The connection that errored still serves.
    assert!(client.recognize("fig1", "cd").unwrap());
    let snap = metrics.snapshot();
    assert!(snap.totals.errors >= 3, "{:?}", snap.totals);
    assert!(snap.connections.iter().any(|r| r.grammar == "_protocol" && r.counts.errors > 0));
}

/// One seeded client byte stream: 1–8 frames with valid and bogus opcodes
/// and payloads, some declaring a length (up to 64 KiB) other than the bytes
/// that follow, and the whole stream sometimes cut short.
fn random_frame_stream(rng: &mut StdRng, artifact: &str) -> Vec<u8> {
    let names: [&[u8]; 4] = [b"fig1", b"dyck", b"nope", b"\xff\xfe"];
    let inputs: [&[u8]; 5] = [b"agcdcdhbcd", b"cd", b"(x(x))x", b")(", b"\xe2\x8a"];
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(1..=8) {
        let name = names[rng.gen_range(0..names.len())];
        let input = inputs[rng.gen_range(0..inputs.len())];
        let payload = match rng.gen_range(0..10) {
            0 => [&[op::HELLO][..], if rng.gen_bool(0.5) { b"fuzz" } else { b"" }].concat(),
            1 => [&[op::BEGIN][..], name].concat(),
            2 => [&[op::DATA][..], input].concat(),
            3 => vec![op::END],
            4 => {
                let name = std::str::from_utf8(name).unwrap_or("fig1");
                let mut q = encode_named(op::QUERY, name, input);
                if rng.gen_bool(0.2) {
                    q[1] = rng.gen_range(0..=u8::MAX);
                }
                q
            }
            5 => {
                let paths = ["/healthz", "/metrics", "/grammars", "/nope"];
                [&[op::ADMIN][..], paths[rng.gen_range(0..paths.len())].as_bytes()].concat()
            }
            6 => {
                let name = std::str::from_utf8(name).unwrap_or("dyck");
                let doc = if rng.gen_bool(0.3) { artifact } else { "{\"format\": 1}" };
                encode_named(op::PUBLISH, name, doc.as_bytes())
            }
            7 => Vec::new(),
            _ => (0..rng.gen_range(0..16)).map(|_| rng.gen_range(0..=u8::MAX)).collect(),
        };
        let declared =
            if rng.gen_bool(0.15) { rng.gen_range(0..=64 << 10) } else { payload.len() as u32 };
        out.extend_from_slice(&declared.to_be_bytes());
        out.extend_from_slice(&payload);
    }
    if rng.gen_bool(0.2) {
        out.truncate(rng.gen_range(0..out.len()));
    }
    out
}

/// Panics on threads without a name: the daemon's accept and connection
/// threads (test threads carry their test's name).
static DAEMON_THREAD_PANICS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn random_frame_streams_never_panic_the_daemon() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name().is_none() {
            DAEMON_THREAD_PANICS.fetch_add(1, Ordering::SeqCst);
        }
        default_hook(info);
    }));
    let (daemon, _registry, _metrics, _log) = start_daemon();
    let addr = daemon.addr();
    let artifact = dyck().to_json();
    let mut rng = StdRng::seed_from_u64(0xF2A3E);
    let mut answered = 0usize;
    for case in 0..64 {
        let stream = random_frame_stream(&mut rng, &artifact);
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut replies = conn.try_clone().unwrap();
        // Drain replies while writing, so neither side blocks on a full
        // socket buffer; the daemon closes after a clean EOF or a bad frame.
        let reader = std::thread::spawn(move || {
            let mut verdicts = 0usize;
            while let Ok(Some(reply)) = read_frame(&mut replies) {
                verdicts += usize::from(reply == b"+accept" || reply == b"+reject");
            }
            verdicts
        });
        // A daemon thread that panicked has closed the socket, so a write
        // may fail; the panic check below reports it.
        let _ = conn.write_all(&stream);
        let _ = conn.shutdown(Shutdown::Write);
        answered += reader.join().unwrap();

        let mut admin = Client::connect(addr, "admin").unwrap();
        let health = admin.admin("/healthz").unwrap();
        assert!(health.starts_with("ok "), "case {case}: {health}");
        let metrics = admin.admin("/metrics").unwrap();
        let requests: usize = metrics
            .lines()
            .filter(|l| l.starts_with("vstar_requests_total{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(requests, answered, "case {case}: stream {stream:?}");
        assert_eq!(DAEMON_THREAD_PANICS.load(Ordering::SeqCst), 0, "case {case}: {stream:?}");
    }
    assert!(answered > 0, "no stream got a verdict");
}
