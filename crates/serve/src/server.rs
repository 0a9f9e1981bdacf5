//! The serving daemon: a thread-per-connection TCP loop over the framed
//! protocol, wired into the observability plane.
//!
//! Every connection gets its own handler thread and its own
//! [`vstar_parser::SessionState`] (the raw bytes of the streamed input, at
//! most [`MAX_FRAME_LEN`] of them); the compiled artifacts, the
//! [`MetricsRegistry`], the [`GrammarRegistry`] and the [`AccessLog`] are
//! shared. The request hot path touches exactly one metrics shard (its own
//! `(grammar, connection)` cell) and never blocks on another connection.
//!
//! Streaming sessions pin the grammar *entry* they began with: a hot reload
//! published mid-stream does not change the grammar that finishes a half-fed
//! input (the old `Arc` keeps the old artifact alive); one-shot `Q` requests
//! always resolve the current version. Both decide with
//! [`vstar_parser::CompiledGrammar::recognize`] on the raw input.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::Serialize;
use vstar_parser::{GrammarStats, SessionState};
use vstar_telemetry::{MetricsRegistry, MetricsShard};

use crate::access_log::AccessLog;
use crate::protocol::{decode_named, op, read_frame, write_frame, MAX_FRAME_LEN};
use crate::registry::{GrammarEntry, GrammarRegistry};

/// Metrics key charged for requests that never resolve to a grammar
/// (unknown names, malformed frames, bad opcodes).
const PROTOCOL_GRAMMAR: &str = "_protocol";

/// One registered grammar as the `/grammars` endpoint reports it.
#[derive(Clone, Debug, Serialize)]
struct GrammarCard {
    name: String,
    version: u64,
    generation: u64,
    artifact_hash: String,
    stats: GrammarStats,
}

/// A running serving daemon; dropping it (or calling [`Daemon::shutdown`])
/// stops the accept loop.
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Everything the connection handlers share.
struct Shared {
    registry: Arc<GrammarRegistry>,
    metrics: Arc<MetricsRegistry>,
    access_log: AccessLog,
    stop: Arc<AtomicBool>,
    conn_counter: AtomicU64,
}

impl Daemon {
    /// Binds `addr` (use port 0 for an ephemeral port; see [`Daemon::addr`])
    /// and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when binding fails.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: Arc<GrammarRegistry>,
        metrics: Arc<MetricsRegistry>,
        access_log: AccessLog,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::new(Shared {
            registry,
            metrics,
            access_log,
            stop: Arc::clone(&stop),
            conn_counter: AtomicU64::new(0),
        });
        let accept_handles = Arc::clone(&conn_handles);
        let accept_handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || {
                    let _ = handle_connection(stream, &shared);
                });
                let mut handles = accept_handles.lock().expect("no panics under this lock");
                reap_finished(&mut handles);
                handles.push(handle);
            }
        });
        Ok(Daemon { addr, stop, accept_handle: Some(accept_handle), conn_handles })
    }

    /// The bound address (the actual port when started with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the accept loop, and reaps finished connection
    /// threads. Connections still open are left to finish on their own (their
    /// threads end when the client hangs up) — disconnect clients first for a
    /// fully clean shutdown.
    pub fn shutdown(&mut self) {
        if self.accept_handle.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let handles = std::mem::take(&mut *self.conn_handles.lock().expect("no panics"));
        for handle in handles {
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Joins the connection threads that have finished, so the handle list (and
/// each finished thread's per-thread state) is bounded by the connections
/// open at once rather than by every connection ever accepted.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Per-connection handler state: the label, the optional streaming session,
/// and the per-grammar shard cache.
struct Connection<'s> {
    shared: &'s Shared,
    label: String,
    /// Set once any non-hello frame arrives; a `H` after that is an error.
    label_locked: bool,
    /// The open streaming session: pinned entry, its shard, the state, the
    /// byte count of the current input (data past [`MAX_FRAME_LEN`] is
    /// counted but not buffered), and the request start time.
    session: Option<StreamSession>,
    shards: std::collections::BTreeMap<String, Arc<MetricsShard>>,
}

struct StreamSession {
    entry: Arc<GrammarEntry>,
    shard: Arc<MetricsShard>,
    state: SessionState,
    bytes: u64,
    started: Option<Instant>,
}

impl Connection<'_> {
    fn shard(&mut self, grammar: &str) -> Arc<MetricsShard> {
        if let Some(shard) = self.shards.get(grammar) {
            return Arc::clone(shard);
        }
        let shard = self.shared.metrics.shard(grammar, &self.label);
        self.shards.insert(grammar.to_string(), Arc::clone(&shard));
        shard
    }

    fn protocol_error(&mut self) {
        self.shard(PROTOCOL_GRAMMAR).record_error();
    }
}

/// Runs one connection to completion: read a frame, dispatch, reply, repeat
/// until the peer hangs up or the wire breaks.
fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let n = shared.conn_counter.fetch_add(1, Ordering::Relaxed);
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);
    let mut conn = Connection {
        shared,
        label: format!("conn-{n}"),
        label_locked: false,
        session: None,
        shards: std::collections::BTreeMap::new(),
    };
    use std::io::Write as _;
    while let Some(payload) = read_frame(&mut reader)? {
        if let Some(reply) = dispatch(&mut conn, &payload) {
            write_frame(&mut writer, &reply)?;
            writer.flush()?;
        }
    }
    Ok(())
}

/// Records one answered request — in its metrics shard and in the access
/// log — and returns its verdict reply.
fn finish_request(
    shared: &Shared,
    label: &str,
    shard: &MetricsShard,
    entry: &GrammarEntry,
    bytes: u64,
    accepted: bool,
    wall_us: u64,
) -> Vec<u8> {
    shard.record_request(bytes, accepted, wall_us);
    shared.access_log.access(
        &entry.name,
        entry.version,
        label,
        accepted,
        bytes,
        wall_us,
        shared.registry.generation(),
    );
    if accepted {
        b"+accept".to_vec()
    } else {
        b"+reject".to_vec()
    }
}

/// Dispatches one client frame; `None` means no reply (data frames).
fn dispatch(conn: &mut Connection<'_>, payload: &[u8]) -> Option<Vec<u8>> {
    let Some((&opcode, tail)) = payload.split_first() else {
        conn.protocol_error();
        return Some(b"-empty-frame".to_vec());
    };
    match opcode {
        op::HELLO => {
            if conn.label_locked {
                conn.protocol_error();
                return Some(b"-late-hello: label must precede requests".to_vec());
            }
            match std::str::from_utf8(tail) {
                Ok(label) if !label.is_empty() => {
                    conn.label = label.to_string();
                    conn.label_locked = true;
                    Some(b"+ok".to_vec())
                }
                _ => {
                    conn.protocol_error();
                    Some(b"-bad-label: non-empty UTF-8 required".to_vec())
                }
            }
        }
        op::BEGIN => {
            conn.label_locked = true;
            let Ok(name) = std::str::from_utf8(tail) else {
                conn.protocol_error();
                return Some(b"-bad-grammar-name".to_vec());
            };
            let Some(entry) = conn.shared.registry.get(name) else {
                conn.protocol_error();
                return Some(format!("-unknown-grammar {name}").into_bytes());
            };
            let state = SessionState::new();
            let shard = conn.shard(name);
            let reply = format!("+ok v={} g={}", entry.version, entry.generation);
            conn.session = Some(StreamSession { entry, shard, state, bytes: 0, started: None });
            Some(reply.into_bytes())
        }
        op::DATA => {
            let Some(session) = conn.session.as_mut() else {
                conn.protocol_error();
                return Some(b"-no-session: send B first".to_vec());
            };
            if session.started.is_none() {
                session.started = Some(Instant::now());
            }
            session.bytes += tail.len() as u64;
            if session.bytes <= MAX_FRAME_LEN as u64 {
                session.state.push_bytes(tail);
            }
            None
        }
        op::END => {
            let Some(session) = conn.session.as_mut() else {
                conn.protocol_error();
                return Some(b"-no-session: send B first".to_vec());
            };
            if session.bytes > MAX_FRAME_LEN as u64 {
                session.shard.record_error();
                session.state.reset();
                session.bytes = 0;
                session.started = None;
                return Some(b"-input-too-large".to_vec());
            }
            let accepted = session.state.finish(&session.entry.grammar);
            let wall_us = session
                .started
                .take()
                .map_or(0, |t| u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
            let reply = finish_request(
                conn.shared,
                &conn.label,
                &session.shard,
                &session.entry,
                session.bytes,
                accepted,
                wall_us,
            );
            session.state.reset();
            session.bytes = 0;
            Some(reply)
        }
        op::QUERY => {
            conn.label_locked = true;
            let Some((name, input)) = decode_named(tail) else {
                conn.protocol_error();
                return Some(b"-bad-query-frame".to_vec());
            };
            let Ok(input) = std::str::from_utf8(input) else {
                conn.protocol_error();
                return Some(b"-bad-query-input: UTF-8 required".to_vec());
            };
            let Some(entry) = conn.shared.registry.get(name) else {
                conn.protocol_error();
                return Some(format!("-unknown-grammar {name}").into_bytes());
            };
            let started = Instant::now();
            let accepted = entry.grammar.recognize(input);
            let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            let shard = conn.shard(name);
            let bytes = input.len() as u64;
            Some(finish_request(conn.shared, &conn.label, &shard, &entry, bytes, accepted, wall_us))
        }
        op::ADMIN => match tail {
            b"/healthz" => Some(
                format!(
                    "+ok generation={} grammars={}",
                    conn.shared.registry.generation(),
                    conn.shared.registry.len()
                )
                .into_bytes(),
            ),
            b"/metrics" => {
                let mut reply = b"+".to_vec();
                reply.extend_from_slice(conn.shared.metrics.render_prometheus().as_bytes());
                Some(reply)
            }
            b"/grammars" => {
                let cards: Vec<GrammarCard> = conn
                    .shared
                    .registry
                    .entries()
                    .iter()
                    .map(|e| GrammarCard {
                        name: e.name.clone(),
                        version: e.version,
                        generation: e.generation,
                        artifact_hash: format!("{:016x}", e.hash),
                        stats: e.grammar.stats(),
                    })
                    .collect();
                let mut reply = b"+".to_vec();
                reply.extend_from_slice(
                    serde_json::to_string(&cards).expect("cards serialize").as_bytes(),
                );
                Some(reply)
            }
            _ => {
                conn.protocol_error();
                Some(b"-unknown-endpoint: /healthz /metrics /grammars".to_vec())
            }
        },
        op::PUBLISH => {
            conn.label_locked = true;
            let Some((name, artifact)) = decode_named(tail) else {
                conn.protocol_error();
                return Some(b"-bad-publish-frame".to_vec());
            };
            if name.is_empty() {
                conn.protocol_error();
                return Some(b"-bad-grammar-name".to_vec());
            }
            let Ok(artifact) = std::str::from_utf8(artifact) else {
                conn.protocol_error();
                return Some(b"-bad-artifact: UTF-8 required".to_vec());
            };
            match vstar_parser::CompiledGrammar::from_json(artifact) {
                Ok(grammar) => {
                    let audit = conn.shared.registry.publish_with(name, grammar, |audit| {
                        conn.shared.access_log.reload(audit);
                    });
                    Some(format!("+ok v={} g={}", audit.version, audit.generation).into_bytes())
                }
                Err(e) => {
                    conn.protocol_error();
                    Some(format!("-bad-artifact: {e}").into_bytes())
                }
            }
        }
        other => {
            conn.protocol_error();
            Some(format!("-bad-opcode {other:#04x}").into_bytes())
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use vstar_parser::CompiledGrammar;
    use vstar_vpl::grammar::figure1_grammar;

    use super::*;
    use crate::Client;

    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let registry = Arc::new(GrammarRegistry::new());
        registry.publish("fig1", CompiledGrammar::from_vpg(&figure1_grammar()).unwrap());
        let (access_log, _) = AccessLog::in_memory();
        let mut daemon =
            Daemon::start("127.0.0.1:0", registry, Arc::new(MetricsRegistry::new()), access_log)
                .unwrap();
        for i in 0..40 {
            let mut client = Client::connect(daemon.addr(), &format!("c{i}")).unwrap();
            assert!(client.recognize("fig1", "cd").unwrap());
            drop(client);
            // Wait for the listed threads to see their hang-ups, so the next
            // accept finds them finished. The accept loop lists a thread just
            // after starting it, so the newest one may still be unlisted:
            // the list holds at most the previous connection and this one.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !daemon.conn_handles.lock().unwrap().iter().all(JoinHandle::is_finished) {
                assert!(Instant::now() < deadline, "connection {i} never finished");
                std::thread::sleep(Duration::from_millis(1));
            }
            let listed = daemon.conn_handles.lock().unwrap().len();
            assert!(listed <= 2, "{listed} handles listed after {} connections", i + 1);
        }
        daemon.shutdown();
    }
}
