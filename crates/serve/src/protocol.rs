//! The daemon's length-prefixed wire protocol (see `docs/PROTOCOL.md`).
//!
//! Every message in either direction is one *frame*: a 4-byte big-endian
//! payload length followed by that many payload bytes. Client payloads start
//! with a one-byte opcode; server payloads start with `+` (success) or `-`
//! (error) followed by UTF-8 text or, for admin endpoints, the endpoint body.
//!
//! The frame layer is deliberately dumb — no compression, no checksums, no
//! pipelining guarantees beyond TCP's own ordering — because the protocol's
//! interesting property lives one layer up: `D` (data) frames may split the
//! input at *any* byte boundary, including mid-codepoint, and the verdict
//! must not change (the [`vstar_parser::SessionState`] buffers the raw bytes
//! and decodes them once, at `E`; the daemon's tests drive it through real
//! sockets).

use std::io::{Read, Write};

/// Hard cap on a single frame's payload (16 MiB), and on one streamed input
/// (the bytes of its `D` frames). A peer announcing a larger frame is treated
/// as a protocol error, never an allocation; a larger stream ends in
/// `-input-too-large`.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Client opcodes (the first payload byte of a client frame).
pub mod op {
    /// `H <label>` — name this connection for metrics and access logs. Must
    /// precede any `B`/`D`/`E`/`Q`; optional otherwise (the daemon assigns
    /// `conn-<n>` to anonymous connections).
    pub const HELLO: u8 = b'H';
    /// `B <grammar>` — begin a streaming session bound to `<grammar>`,
    /// pinning the grammar version current at this moment. Replies
    /// `+ok v=<version> g=<generation>`.
    pub const BEGIN: u8 = b'B';
    /// `D <bytes>` — append raw input bytes to the open streaming session.
    /// Not acknowledged. Chunks may split UTF-8 sequences anywhere. Bytes past
    /// [`super::MAX_FRAME_LEN`] in one input are dropped, and its `E` errors.
    pub const DATA: u8 = b'D';
    /// `E` — end the streamed input and ask for the verdict: the same one a
    /// `Q` of those bytes gets from the pinned grammar. Replies `+accept` or
    /// `+reject`, or `-input-too-large` when the input passed
    /// [`super::MAX_FRAME_LEN`]; either way the session resets and stays
    /// bound, so the next `D` starts a fresh input against the same pinned
    /// grammar.
    pub const END: u8 = b'E';
    /// `Q <u16 name_len> <grammar> <input>` — one-shot recognition of a raw
    /// input against the *current* version of `<grammar>` (token-mode
    /// grammars tokenize; this is [`vstar_parser::CompiledGrammar::recognize`],
    /// as for the `B`/`D`/`E` stream). Replies `+accept`/`+reject`.
    pub const QUERY: u8 = b'Q';
    /// `A <path>` — admin endpoint: `/healthz`, `/metrics` (Prometheus text)
    /// or `/grammars` (JSON array of grammar cards).
    pub const ADMIN: u8 = b'A';
    /// `P <u16 name_len> <grammar> <artifact-json>` — publish (hot-reload) a
    /// compiled artifact under `<grammar>`. Replies
    /// `+ok v=<version> g=<generation>`.
    pub const PUBLISH: u8 = b'P';
}

/// Writes one frame: 4-byte big-endian length, then `payload`.
///
/// # Errors
///
/// I/O errors from the underlying writer; payloads over [`MAX_FRAME_LEN`]
/// are rejected as `InvalidInput` without writing anything.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len()).expect("cap fits in u32");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection between messages).
///
/// # Errors
///
/// I/O errors, an EOF inside a frame (`UnexpectedEof`), or a declared length
/// over [`MAX_FRAME_LEN`] (`InvalidData` — the bytes are not read).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("peer declared a {len}-byte frame (cap {MAX_FRAME_LEN})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

enum ReadOutcome {
    Filled,
    Eof,
}

/// `read_exact`, except a clean EOF before the *first* byte is `Eof` rather
/// than an error (EOF after at least one byte is still `UnexpectedEof`).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<ReadOutcome> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 if filled == 0 => return Ok(ReadOutcome::Eof),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            n => filled += n,
        }
    }
    Ok(ReadOutcome::Filled)
}

/// Encodes the `<u16 name_len> <name> <rest>` payload tail used by `Q` and
/// `P` frames.
///
/// # Panics
///
/// Panics if `name` exceeds `u16::MAX` bytes (grammar names are short
/// identifiers; the daemon-side decoder rejects oversized declarations
/// gracefully instead).
#[must_use]
pub fn encode_named(op: u8, name: &str, rest: &[u8]) -> Vec<u8> {
    let name_len = u16::try_from(name.len()).expect("grammar names are short");
    let mut payload = Vec::with_capacity(3 + name.len() + rest.len());
    payload.push(op);
    payload.extend_from_slice(&name_len.to_be_bytes());
    payload.extend_from_slice(name.as_bytes());
    payload.extend_from_slice(rest);
    payload
}

/// Decodes the `<u16 name_len> <name> <rest>` tail of a `Q`/`P` payload
/// (everything after the opcode byte). Returns `None` when the declared name
/// length overruns the payload or the name is not UTF-8.
#[must_use]
pub fn decode_named(tail: &[u8]) -> Option<(&str, &[u8])> {
    let (len_bytes, rest) = tail.split_at_checked(2)?;
    let name_len = u16::from_be_bytes([len_bytes[0], len_bytes[1]]) as usize;
    let (name, rest) = rest.split_at_checked(name_len)?;
    Some((std::str::from_utf8(name).ok()?, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0u8, 255, 7]).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&[0u8, 255, 7][..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at a boundary");
    }

    #[test]
    fn truncated_frames_and_oversized_declarations_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        // Cut inside the payload.
        let mut r = &wire[..wire.len() - 2];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // Cut inside the length prefix.
        let mut r = &wire[..2];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // A declared length over the cap errors without allocating it.
        let huge = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        let mut r = &huge[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Writing over the cap is rejected up front.
        struct NoWrite;
        impl Write for NoWrite {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                panic!("must not write");
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(&mut NoWrite, &big).is_err());
    }

    #[test]
    fn named_payloads_round_trip_and_reject_overruns() {
        let payload = encode_named(op::QUERY, "json", b"{\"k\":1}");
        assert_eq!(payload[0], op::QUERY);
        let (name, rest) = decode_named(&payload[1..]).unwrap();
        assert_eq!(name, "json");
        assert_eq!(rest, b"{\"k\":1}");
        // Empty name and empty rest are fine.
        let payload = encode_named(op::PUBLISH, "", b"");
        let (name, rest) = decode_named(&payload[1..]).unwrap();
        assert_eq!(name, "");
        assert!(rest.is_empty());
        // Declared name length past the payload end.
        assert!(decode_named(&[0, 10, b'a']).is_none());
        assert!(decode_named(&[0]).is_none());
        // Non-UTF-8 names are rejected.
        assert!(decode_named(&[0, 1, 0xff]).is_none());
    }
}
