//! `vstar-serve`: a multi-grammar serving daemon for compiled V-Star
//! artifacts, built around a first-class observability plane.
//!
//! The ROADMAP's north star is serving learned grammars (V-Star, PLDI 2024)
//! through their compiled derivative automata (Jia, Kumar & Tan, OOPSLA 2021)
//! to live traffic. This crate is that serving layer, dependency-free over
//! `std::net`:
//!
//! * [`GrammarRegistry`] — a versioned name → artifact map with atomic
//!   hot-reload and a [`ReloadAudit`] trail (old/new artifact fingerprint,
//!   monotonic swap generation).
//! * [`Daemon`] — a thread-per-connection TCP server speaking a length-
//!   prefixed framed protocol (`docs/PROTOCOL.md`): streaming `B`/`D`/`E`
//!   sessions over [`vstar_parser::SessionState`] (chunks may split UTF-8
//!   codepoints anywhere; the verdict is `Q`'s on the same bytes), one-shot
//!   `Q` recognition, `P` hot-reload, and
//!   admin endpoints `/healthz`, `/metrics` (Prometheus text exposition from
//!   the process-wide [`vstar_telemetry::MetricsRegistry`]) and `/grammars`
//!   (per-grammar [`vstar_parser::GrammarStats`] cards).
//! * [`AccessLog`] — structured JSONL access logs reusing the telemetry
//!   journal schema: one record per request (grammar, version, verdict,
//!   bytes, wall µs) plus hot-reload audit records.
//! * [`Client`] — a small blocking client for the same protocol.
//!
//! The observability plane follows the repository's determinism convention:
//! request/byte/verdict counters and request-size histograms are pure
//! functions of the served inputs (committed and diffed by the `daemon`
//! bench), while wall-clock latencies stay reported-only. The serve path is
//! oracle-free by construction — it sees only [`vstar_parser::CompiledGrammar`]
//! values, which embed no membership oracle to call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access_log;
mod client;
mod protocol;
mod registry;
mod server;

pub use access_log::{AccessLog, SharedBuf};
pub use client::{Client, ClientError};
pub use protocol::{decode_named, encode_named, op, read_frame, write_frame, MAX_FRAME_LEN};
pub use registry::{GrammarEntry, GrammarRegistry, ReloadAudit};
pub use server::Daemon;
