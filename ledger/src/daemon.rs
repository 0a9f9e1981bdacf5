//! The serving daemon driven over its public client, every verdict checked
//! against the oracle's.

use std::io::sink;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vstar_serve::{AccessLog, Client, ClientError, Daemon, GrammarRegistry};
use vstar_telemetry::MetricsRegistry;

use crate::inputs::{Case, Inputs};
use crate::learn::Served;
use crate::stats::status_kib;

/// Load clients (one connection each).
const CLIENTS: usize = 2;
/// Operations every load client completes however short the window: the
/// fixed prefix whose verdicts are counted as operations attempted and
/// failed, and whose tallies the determinism guard compares. Later operations
/// vary in number with the host's speed, so they are checked but not
/// counted.
const MIN_OPS: usize = 20;
/// The full mix. It is not a traffic model (no trace of real traffic exists
/// for the daemon): its constants make every run issue each request kind a
/// known number of times, so writes run beside reads. Share of operations
/// that stream an input instead of querying it:
const STREAM_PERCENT: u32 = 10;
/// Client 0 scrapes `/metrics` every this many operations …
const ADMIN_EVERY: usize = 40;
/// … and republishes the reload grammar every this many, at this phase
/// (never the admin phase).
const PUBLISH_EVERY: usize = 80;
const PUBLISH_PHASE: usize = 19;
/// Operations of each kind in the per-layer probe.
const PROBE_OPS: usize = 30;

#[derive(Clone, Copy)]
enum Op {
    Query,
    Stream,
    Admin,
    Publish,
}

/// What the clients saw.
#[derive(Default)]
pub struct DaemonRun {
    /// Client-side round trips, in seconds, by operation kind.
    pub query: Vec<f64>,
    pub stream: Vec<f64>,
    pub admin: Vec<f64>,
    pub publish: Vec<f64>,
    /// Wall time of the load, in seconds.
    pub secs: f64,
    /// `Q` verdicts and streamed verdicts that differ from the oracle's.
    pub query_wrong: u64,
    pub stream_wrong: u64,
    /// Operations completed among each client's fixed first operations, and
    /// the two counts above over them.
    pub prefix_ops: u64,
    pub prefix_query_wrong: u64,
    pub prefix_stream_wrong: u64,
    /// `Q` verdicts that differ from the in-process verdict on the same
    /// input: the daemon serves the very grammars, so this must stay 0.
    pub query_mismatch: u64,
    /// Failed calls (I/O, protocol or server errors).
    pub errors: u64,
    /// Whether the server's `/metrics` request total equals the number of
    /// `Q` requests and streams the clients completed.
    pub metrics_match: bool,
    /// RSS growth over the load, in KiB.
    pub rss_growth_kib: i64,
    /// Records the access log holds in memory when the daemon stops.
    pub log_records: u64,
}

impl DaemonRun {
    pub fn completed(&self) -> u64 {
        (self.query.len() + self.stream.len() + self.admin.len() + self.publish.len()) as u64
    }

    /// Operations counted as attempted: the fixed prefix, and any error.
    pub fn attempted(&self) -> u64 {
        self.prefix_ops + self.errors
    }

    pub fn failed(&self) -> u64 {
        self.prefix_query_wrong + self.prefix_stream_wrong + self.errors
    }

    fn absorb(&mut self, other: DaemonRun) {
        self.query.extend(other.query);
        self.stream.extend(other.stream);
        self.admin.extend(other.admin);
        self.publish.extend(other.publish);
        self.query_wrong += other.query_wrong;
        self.stream_wrong += other.stream_wrong;
        self.prefix_ops += other.prefix_ops;
        self.prefix_query_wrong += other.prefix_query_wrong;
        self.prefix_stream_wrong += other.prefix_stream_wrong;
        self.query_mismatch += other.query_mismatch;
        self.errors += other.errors;
    }
}

/// One client connection and what it has seen so far.
struct Conn<'a> {
    client: Client,
    grammars: &'a [Served],
    /// In-process verdict of each short input.
    reference: &'a [bool],
    /// The grammar `P` republishes: the one with the smallest artifact.
    reload: usize,
    rng: StdRng,
    seen: DaemonRun,
    /// Operations run so far, and whether the connection broke.
    ops: usize,
    broken: bool,
}

impl Conn<'_> {
    /// Load client `index` running `mix` on `inputs` until `deadline`, and
    /// through its first [`MIN_OPS`] operations whatever the deadline.
    fn drive(&mut self, index: usize, mix: Mix, inputs: &Inputs, deadline: Instant) {
        while !self.broken && (self.ops < MIN_OPS || Instant::now() < deadline) {
            let n = self.ops;
            let op = match mix {
                Mix::Query => Op::Query,
                Mix::Full if index == 0 && n % ADMIN_EVERY == ADMIN_EVERY - 1 => Op::Admin,
                Mix::Full if index == 0 && n % PUBLISH_EVERY == PUBLISH_PHASE => Op::Publish,
                Mix::Full if self.rng.gen_ratio(STREAM_PERCENT, 100) => Op::Stream,
                Mix::Full => Op::Query,
            };
            let index = self.rng.gen_range(0..inputs.short.len());
            self.broken = !self.run(op, &inputs.short[index], index, n < MIN_OPS);
            self.ops += 1;
        }
    }

    /// Runs one operation and records its round trip. Returns `false` when
    /// the connection broke.
    /// `index` is the position of `case` among the short inputs.
    fn run(&mut self, op: Op, case: &Case, index: usize, in_prefix: bool) -> bool {
        let name = self.grammars[case.lang].name;
        let started = Instant::now();
        let outcome = match op {
            Op::Query => self.client.recognize(name, &case.text).map(Some),
            Op::Stream => self.stream(name, case.text.as_bytes()).map(Some),
            Op::Admin => self.client.admin("/metrics").map(|_| None),
            Op::Publish => {
                let target = &self.grammars[self.reload];
                self.client.publish(target.name, &target.artifact).and_then(|reply| {
                    if reply.starts_with("ok v=") {
                        Ok(None)
                    } else {
                        Err(ClientError::Protocol(format!("publish replied {reply:?}")))
                    }
                })
            }
        };
        let secs = started.elapsed().as_secs_f64();
        let verdict = match outcome {
            Ok(verdict) => verdict,
            Err(e) => {
                eprintln!("daemon: {e}");
                self.seen.errors += 1;
                return !matches!(e, ClientError::Io(_));
            }
        };
        let wrong = u64::from(verdict.is_some_and(|v| v != case.expect));
        self.seen.prefix_ops += u64::from(in_prefix);
        match op {
            Op::Query => {
                self.seen.query.push(secs);
                self.seen.query_wrong += wrong;
                self.seen.query_mismatch += u64::from(verdict != Some(self.reference[index]));
                self.seen.prefix_query_wrong += wrong * u64::from(in_prefix);
            }
            Op::Stream => {
                self.seen.stream.push(secs);
                self.seen.stream_wrong += wrong;
                self.seen.prefix_stream_wrong += wrong * u64::from(in_prefix);
            }
            Op::Admin => self.seen.admin.push(secs),
            Op::Publish => self.seen.publish.push(secs),
        }
        true
    }

    /// Streams `bytes` as one `B`, seeded 1–7 byte `D` chunks, and `E`.
    fn stream(&mut self, grammar: &str, bytes: &[u8]) -> Result<bool, ClientError> {
        self.client.begin(grammar)?;
        let mut at = 0;
        while at < bytes.len() {
            let take = self.rng.gen_range(1..=7).min(bytes.len() - at);
            self.client.data(&bytes[at..at + take])?;
            at += take;
        }
        self.client.end()
    }
}

/// A daemon serving `grammars` on an ephemeral port, access log to a sink.
struct Server {
    daemon: Daemon,
    log: AccessLog,
    reload: usize,
}

impl Server {
    fn start(grammars: &[Served]) -> Server {
        let registry = Arc::new(GrammarRegistry::new());
        for g in grammars {
            registry.publish(g.name, g.grammar.clone());
        }
        let metrics = Arc::new(MetricsRegistry::new());
        let log = AccessLog::new(Box::new(sink()));
        let daemon = Daemon::start("127.0.0.1:0", registry, metrics, log.clone())
            .expect("the daemon binds an ephemeral port");
        let reload = (0..grammars.len())
            .min_by_key(|&i| grammars[i].artifact.len())
            .expect("at least one grammar");
        Server { daemon, log, reload }
    }

    fn addr(&self) -> SocketAddr {
        self.daemon.addr()
    }

    fn conn<'a>(
        &self,
        grammars: &'a [Served],
        reference: &'a [bool],
        label: &str,
        seed: u64,
    ) -> Conn<'a> {
        Conn {
            client: Client::connect(self.addr(), label).expect("the client connects"),
            grammars,
            reference,
            reload: self.reload,
            rng: StdRng::seed_from_u64(seed),
            seen: DaemonRun::default(),
            ops: 0,
            broken: false,
        }
    }

    /// Sum of the server's `vstar_requests_total` series.
    fn requests_total(&self) -> Option<u64> {
        let mut admin = Client::connect(self.addr(), "ledger-admin").ok()?;
        let text = admin.admin("/metrics").ok()?;
        let mut total = 0u64;
        for line in text.lines().filter(|l| l.starts_with("vstar_requests_total{")) {
            total += line.rsplit(' ').next()?.parse::<u64>().ok()?;
        }
        Some(total)
    }

    /// Checks `/metrics` against the clients' counts and stops the daemon.
    fn finish(mut self, run: &mut DaemonRun) {
        let served = (run.query.len() + run.stream.len()) as u64;
        run.metrics_match = self.requests_total() == Some(served);
        self.daemon.shutdown();
        run.log_records = self.log.records().len() as u64;
    }
}

/// What the load clients send.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The daemon workload's mix: mostly one-shot `Q`, some raw streams, and
    /// client 0 also scrapes `/metrics` and hot-reloads one grammar.
    Full,
    /// One-shot `Q` only: the daemon's end-to-end figures in the workloads
    /// that are about another layer.
    Query,
}

/// The closed-loop load: [`CLIENTS`] clients, each with one connection,
/// send their next operation as soon as the previous one returns, on short
/// raw inputs. It runs in segments, so other measurements can sit between
/// them; the daemon and the connections persist across segments.
pub struct Load<'a> {
    server: Server,
    conns: Vec<Conn<'a>>,
    inputs: &'a Inputs,
    mix: Mix,
    secs: f64,
    rss_before: i64,
}

impl<'a> Load<'a> {
    /// `reference` holds the in-process verdict of each short input.
    pub fn start(
        grammars: &'a [Served],
        inputs: &'a Inputs,
        reference: &'a [bool],
        seed: u64,
        mix: Mix,
    ) -> Load<'a> {
        let server = Server::start(grammars);
        let conns = (0..CLIENTS)
            .map(|c| {
                let conn_seed = seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                server.conn(grammars, reference, &format!("load-{c}"), conn_seed)
            })
            .collect();
        let rss_before = status_kib("VmRSS") as i64;
        Load { server, conns, inputs, mix, secs: 0.0, rss_before }
    }

    /// Runs the clients for `secs` seconds and returns when each has finished
    /// its last operation. The first segment runs at least [`MIN_OPS`]
    /// operations per client.
    pub fn run_for(&mut self, secs: f64) {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(secs);
        let (mix, inputs) = (self.mix, self.inputs);
        std::thread::scope(|scope| {
            for (index, conn) in self.conns.iter_mut().enumerate() {
                scope.spawn(move || conn.drive(index, mix, inputs, deadline));
            }
        });
        self.secs += started.elapsed().as_secs_f64();
    }

    /// Stops the daemon and returns what the clients saw.
    pub fn finish(self) -> DaemonRun {
        let mut run = DaemonRun { secs: self.secs, ..DaemonRun::default() };
        for conn in self.conns {
            run.absorb(conn.seen);
        }
        run.rss_growth_kib = status_kib("VmRSS") as i64 - self.rss_before;
        self.server.finish(&mut run);
        run
    }
}

/// The per-layer probe: one client runs [`PROBE_OPS`] operations of each
/// kind in turn, so each kind's round trip is measured on its own.
pub fn probe(grammars: &[Served], inputs: &Inputs, reference: &[bool], seed: u64) -> DaemonRun {
    let server = Server::start(grammars);
    let rss_before = status_kib("VmRSS") as i64;
    let started = Instant::now();
    let mut conn = server.conn(grammars, reference, "probe", seed);
    for op in [Op::Query, Op::Stream, Op::Admin, Op::Publish] {
        for i in 0..PROBE_OPS {
            let index = (i * 7919) % inputs.short.len();
            if !conn.run(op, &inputs.short[index], index, true) {
                break;
            }
        }
    }
    let mut run = DaemonRun { secs: started.elapsed().as_secs_f64(), ..DaemonRun::default() };
    run.absorb(conn.seen);
    run.rss_growth_kib = status_kib("VmRSS") as i64 - rss_before;
    server.finish(&mut run);
    run
}
