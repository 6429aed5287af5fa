//! The wire format: versioned, length-prefixed binary frames.
//!
//! Every frame is `[u32 LE payload length][payload]`; the payload opens
//! with a fixed 26-byte header and closes with an opcode-specific body
//! (all integers little-endian, all floats IEEE-754 `f64` bit patterns —
//! so answers round-trip *bit-identically*, NaNs included):
//!
//! | offset | field        | type  | meaning                                  |
//! |--------|--------------|-------|------------------------------------------|
//! | 0      | `version`    | `u8`  | [`WIRE_VERSION`]                         |
//! | 1      | `opcode`     | `u8`  | request `0x01..`, response `0x81..`      |
//! | 2      | `request_id` | `u64` | client-minted, echoed in the response    |
//! | 10     | `trace_id`   | `u64` | [`simpim_obs::TraceCtx`] trace id        |
//! | 18     | `span_id`    | `u64` | client-side root span id                 |
//! | 26     | body         | —     | per-opcode payload                       |
//!
//! The trace ids ride in the fixed header rather than the body so *every*
//! frame — including typed error responses — stays attributable to the
//! request that caused it, and the server can join the client's trace
//! (via [`simpim_obs::TraceCtx::join`]) before it even looks at the body.
//!
//! Decoding is total: any byte sequence either decodes or returns a
//! structured [`WireError`], never a panic. Body lengths are validated
//! against declared element counts *before* any allocation, so a
//! malicious length field cannot balloon memory. Frame reads are bounded
//! by a configurable maximum ([`DEFAULT_MAX_FRAME`]); an oversized length
//! prefix is detected before any payload is read.

use std::io::{self, Read};

/// Wire protocol version carried in every frame header.
pub const WIRE_VERSION: u8 = 1;

/// Fixed payload header length (version, opcode, request id, trace id,
/// span id).
pub const HEADER_LEN: usize = 26;

/// Default maximum accepted payload length (16 MiB). Override with
/// [`crate::NetConfig::max_frame`].
pub const DEFAULT_MAX_FRAME: usize = 1 << 24;

/// Request opcodes (`0x01..=0x07`).
mod op {
    pub const QUERY: u8 = 0x01;
    pub const INSERT: u8 = 0x02;
    pub const DELETE: u8 = 0x03;
    pub const STATS: u8 = 0x04;
    pub const FLUSH: u8 = 0x05;
    pub const FLIGHT: u8 = 0x06;
    pub const PING: u8 = 0x07;
    pub const QUERY_OK: u8 = 0x81;
    pub const INSERT_OK: u8 = 0x82;
    pub const DELETE_OK: u8 = 0x83;
    pub const STATS_OK: u8 = 0x84;
    pub const FLUSH_OK: u8 = 0x85;
    pub const FLIGHT_OK: u8 = 0x86;
    pub const PONG: u8 = 0x87;
    pub const ERROR: u8 = 0xFF;
}

/// Typed error codes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control shed the request — the per-connection in-flight
    /// window or the engine submission queue was full. Back off and
    /// retry; the connection stays healthy.
    Overloaded,
    /// The request's deadline expired while it waited in the queue.
    DeadlineExpired,
    /// The engine behind the server has shut down.
    Closed,
    /// A request argument was rejected (dimensionality, `k == 0`, ...).
    InvalidArgument,
    /// Server-side configuration error.
    Config,
    /// A PIM execution or refinement failure that was not recoverable, or
    /// a batch that panicked in the engine.
    Internal,
    /// The request frame was malformed (unknown opcode, truncated or
    /// inconsistent body). Request-scoped: the connection continues.
    BadFrame,
    /// The frame's version byte is not [`WIRE_VERSION`]. The server
    /// answers with this code and then closes the connection — nothing
    /// after an alien header can be trusted.
    UnsupportedVersion,
}

impl ErrorCode {
    /// The on-wire `u16` for this code.
    pub fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::DeadlineExpired => 2,
            ErrorCode::Closed => 3,
            ErrorCode::InvalidArgument => 4,
            ErrorCode::Config => 5,
            ErrorCode::Internal => 6,
            ErrorCode::BadFrame => 7,
            ErrorCode::UnsupportedVersion => 8,
        }
    }

    /// Parses an on-wire code; unknown values map to
    /// [`ErrorCode::Internal`] so a newer server's codes degrade rather
    /// than kill the connection.
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExpired,
            3 => ErrorCode::Closed,
            4 => ErrorCode::InvalidArgument,
            5 => ErrorCode::Config,
            6 => ErrorCode::Internal,
            7 => ErrorCode::BadFrame,
            8 => ErrorCode::UnsupportedVersion,
            _ => ErrorCode::Internal,
        }
    }

    /// The [`simpim_serve::ServeError`] this code mirrors, for callers
    /// that want to treat remote and in-process errors uniformly.
    pub fn from_serve(e: &simpim_serve::ServeError) -> ErrorCode {
        use simpim_serve::ServeError as E;
        match e {
            E::Overloaded => ErrorCode::Overloaded,
            E::DeadlineExpired => ErrorCode::DeadlineExpired,
            E::Closed => ErrorCode::Closed,
            E::InvalidArgument { .. } => ErrorCode::InvalidArgument,
            E::Config { .. } => ErrorCode::Config,
            E::Core(_) | E::Mining(_) | E::Internal { .. } => ErrorCode::Internal,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExpired => "deadline_expired",
            ErrorCode::Closed => "closed",
            ErrorCode::InvalidArgument => "invalid_argument",
            ErrorCode::Config => "config",
            ErrorCode::Internal => "internal",
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::UnsupportedVersion => "unsupported_version",
        };
        f.write_str(s)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Exact kNN over the live rows. `timeout_ms == 0` applies the
    /// server's default deadline.
    Query {
        /// Neighbors requested.
        k: u32,
        /// Queue-deadline override in milliseconds (0 = server default).
        timeout_ms: u32,
        /// The query vector.
        vector: Vec<f64>,
    },
    /// Insert one normalized row; the response carries its assigned id.
    Insert {
        /// The row values.
        row: Vec<f64>,
    },
    /// Delete a global id.
    Delete {
        /// The id to delete.
        id: u64,
    },
    /// Fetch engine + transport statistics as JSON.
    Stats,
    /// Force a rolling compacting reprogram.
    Flush,
    /// Fetch the flight-recorder dump (JSONL).
    Flight,
    /// Liveness probe.
    Ping,
}

impl Request {
    /// Short opcode name, used for metrics and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Query { .. } => "query",
            Request::Insert { .. } => "insert",
            Request::Delete { .. } => "delete",
            Request::Stats => "stats",
            Request::Flush => "flush",
            Request::Flight => "flight",
            Request::Ping => "ping",
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Neighbors, best first, as `(global id, measure value)` pairs.
    Query(Vec<(u64, f64)>),
    /// Assigned id of an accepted insert.
    Insert(u64),
    /// Whether the deleted id was present.
    Delete(bool),
    /// Engine + transport statistics as a JSON document.
    Stats(String),
    /// Flush completed.
    Flush,
    /// Flight-recorder dump as JSONL.
    Flight(String),
    /// Liveness answer.
    Pong,
    /// A typed error; see [`ErrorCode`] for retryability.
    Error {
        /// What class of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// The frame header around a request or response: the ids that tie a
/// frame to its request and to the cross-process trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<T> {
    /// Client-minted request id, echoed verbatim in the response.
    pub request_id: u64,
    /// Trace id (0 = untraced); responses echo the request's.
    pub trace_id: u64,
    /// Root span id on the minting side; responses echo the request's.
    pub span_id: u64,
    /// The message itself.
    pub msg: T,
}

/// Structured decode failure.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Version byte was not [`WIRE_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Unknown opcode for this direction.
    BadOpcode {
        /// The opcode byte received.
        got: u8,
    },
    /// The payload ended before a declared field.
    Truncated {
        /// Which field was cut off.
        what: &'static str,
    },
    /// The payload continued past the end of the declared body.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A declared count/length disagrees with the bytes present.
    BadPayload {
        /// What was inconsistent.
        what: String,
    },
    /// A frame declared a payload longer than the configured maximum.
    TooLarge {
        /// The declared payload length.
        len: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (expected {WIRE_VERSION})"
                )
            }
            WireError::BadOpcode { got } => write!(f, "unknown opcode 0x{got:02x}"),
            WireError::Truncated { what } => write!(f, "frame truncated at {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the declared body")
            }
            WireError::BadPayload { what } => write!(f, "inconsistent payload: {what}"),
            WireError::TooLarge { len } => write!(f, "frame of {len} bytes exceeds the limit"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decode failure plus whatever header ids could still be salvaged —
/// so the server can answer a *typed* error frame for the right request
/// even when the body was garbage. Ids are 0 when the header itself was
/// unreadable.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeFailure {
    /// Salvaged request id (0 if the header was unreadable).
    pub request_id: u64,
    /// Salvaged trace id.
    pub trace_id: u64,
    /// Salvaged span id.
    pub span_id: u64,
    /// What went wrong.
    pub error: WireError,
}

/// Little-endian cursor over a payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }

    /// A length-checked `f64` run: requires `count * 8 == remaining`
    /// *before* allocating, so a hostile count cannot balloon memory.
    fn f64_run(&mut self, count: usize, what: &'static str) -> Result<Vec<f64>, WireError> {
        let need = count.checked_mul(8).ok_or(WireError::BadPayload {
            what: format!("{what}: count {count} overflows"),
        })?;
        if self.remaining() < need {
            return Err(WireError::BadPayload {
                what: format!(
                    "{what}: {count} values declared, {} byte(s) present",
                    self.remaining()
                ),
            });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.f64(what)?);
        }
        Ok(out)
    }

    /// A length-prefixed UTF-8 string occupying the rest of the body.
    fn text(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u32(what)? as usize;
        if self.remaining() != len {
            return Err(WireError::BadPayload {
                what: format!(
                    "{what}: {len} byte(s) declared, {} present",
                    self.remaining()
                ),
            });
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload {
            what: format!("{what}: not valid UTF-8"),
        })
    }
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_text(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a full frame (length prefix included) from a header and an
/// opcode + body writer.
fn encode_frame(
    request_id: u64,
    trace_id: u64,
    span_id: u64,
    opcode: u8,
    body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&[0u8; 4]); // length prefix, patched below
    out.push(WIRE_VERSION);
    out.push(opcode);
    push_u64(&mut out, request_id);
    push_u64(&mut out, trace_id);
    push_u64(&mut out, span_id);
    body(&mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Encodes one request as a complete frame (length prefix included).
pub fn encode_request(env: &Envelope<Request>) -> Vec<u8> {
    let (opcode, req) = match &env.msg {
        Request::Query { .. } => (op::QUERY, &env.msg),
        Request::Insert { .. } => (op::INSERT, &env.msg),
        Request::Delete { .. } => (op::DELETE, &env.msg),
        Request::Stats => (op::STATS, &env.msg),
        Request::Flush => (op::FLUSH, &env.msg),
        Request::Flight => (op::FLIGHT, &env.msg),
        Request::Ping => (op::PING, &env.msg),
    };
    encode_frame(
        env.request_id,
        env.trace_id,
        env.span_id,
        opcode,
        |out| match req {
            Request::Query {
                k,
                timeout_ms,
                vector,
            } => {
                push_u32(out, *k);
                push_u32(out, *timeout_ms);
                push_u32(out, vector.len() as u32);
                for v in vector {
                    push_f64(out, *v);
                }
            }
            Request::Insert { row } => {
                push_u32(out, row.len() as u32);
                for v in row {
                    push_f64(out, *v);
                }
            }
            Request::Delete { id } => push_u64(out, *id),
            Request::Stats | Request::Flush | Request::Flight | Request::Ping => {}
        },
    )
}

/// Encodes one response as a complete frame (length prefix included).
pub fn encode_response(env: &Envelope<Response>) -> Vec<u8> {
    let opcode = match &env.msg {
        Response::Query(_) => op::QUERY_OK,
        Response::Insert(_) => op::INSERT_OK,
        Response::Delete(_) => op::DELETE_OK,
        Response::Stats(_) => op::STATS_OK,
        Response::Flush => op::FLUSH_OK,
        Response::Flight(_) => op::FLIGHT_OK,
        Response::Pong => op::PONG,
        Response::Error { .. } => op::ERROR,
    };
    encode_frame(
        env.request_id,
        env.trace_id,
        env.span_id,
        opcode,
        |out| match &env.msg {
            Response::Query(neighbors) => {
                push_u32(out, neighbors.len() as u32);
                for (id, d) in neighbors {
                    push_u64(out, *id);
                    push_f64(out, *d);
                }
            }
            Response::Insert(id) => push_u64(out, *id),
            Response::Delete(found) => out.push(u8::from(*found)),
            Response::Stats(json) => push_text(out, json),
            Response::Flush | Response::Pong => {}
            Response::Flight(jsonl) => push_text(out, jsonl),
            Response::Error { code, message } => {
                push_u16(out, code.to_u16());
                push_text(out, message);
            }
        },
    )
}

/// Salvages header ids for error reporting; zeros when unreadable.
fn salvage(payload: &[u8], error: WireError) -> DecodeFailure {
    let mut ids = (0u64, 0u64, 0u64);
    if payload.len() >= HEADER_LEN {
        ids = (
            u64::from_le_bytes(payload[2..10].try_into().unwrap()),
            u64::from_le_bytes(payload[10..18].try_into().unwrap()),
            u64::from_le_bytes(payload[18..26].try_into().unwrap()),
        );
    }
    DecodeFailure {
        request_id: ids.0,
        trace_id: ids.1,
        span_id: ids.2,
        error,
    }
}

/// Parses the fixed header, returning `(opcode, envelope ids, body reader)`.
fn decode_header<'a>(payload: &'a [u8]) -> Result<(u8, u64, u64, u64, Reader<'a>), WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8("version")?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let opcode = r.u8("opcode")?;
    let request_id = r.u64("request_id")?;
    let trace_id = r.u64("trace_id")?;
    let span_id = r.u64("span_id")?;
    Ok((opcode, request_id, trace_id, span_id, r))
}

/// Decodes a request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Envelope<Request>, DecodeFailure> {
    let fail = |e: WireError| salvage(payload, e);
    let (opcode, request_id, trace_id, span_id, mut r) = decode_header(payload).map_err(fail)?;
    let msg = (|| -> Result<Request, WireError> {
        let msg = match opcode {
            op::QUERY => {
                let k = r.u32("k")?;
                let timeout_ms = r.u32("timeout_ms")?;
                let dim = r.u32("dim")? as usize;
                Request::Query {
                    k,
                    timeout_ms,
                    vector: r.f64_run(dim, "query vector")?,
                }
            }
            op::INSERT => {
                let dim = r.u32("dim")? as usize;
                Request::Insert {
                    row: r.f64_run(dim, "insert row")?,
                }
            }
            op::DELETE => Request::Delete {
                id: r.u64("delete id")?,
            },
            op::STATS => Request::Stats,
            op::FLUSH => Request::Flush,
            op::FLIGHT => Request::Flight,
            op::PING => Request::Ping,
            got => return Err(WireError::BadOpcode { got }),
        };
        r.finish()?;
        Ok(msg)
    })()
    .map_err(fail)?;
    Ok(Envelope {
        request_id,
        trace_id,
        span_id,
        msg,
    })
}

/// Decodes a response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Envelope<Response>, DecodeFailure> {
    let fail = |e: WireError| salvage(payload, e);
    let (opcode, request_id, trace_id, span_id, mut r) = decode_header(payload).map_err(fail)?;
    let msg = (|| -> Result<Response, WireError> {
        let msg = match opcode {
            op::QUERY_OK => {
                let count = r.u32("neighbor count")? as usize;
                let need = count.checked_mul(16).ok_or(WireError::BadPayload {
                    what: format!("neighbor count {count} overflows"),
                })?;
                if r.remaining() != need {
                    return Err(WireError::BadPayload {
                        what: format!(
                            "{count} neighbors declared, {} byte(s) present",
                            r.remaining()
                        ),
                    });
                }
                let mut neighbors = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = r.u64("neighbor id")?;
                    let d = r.f64("neighbor distance")?;
                    neighbors.push((id, d));
                }
                Response::Query(neighbors)
            }
            op::INSERT_OK => Response::Insert(r.u64("insert id")?),
            op::DELETE_OK => match r.u8("delete flag")? {
                0 => Response::Delete(false),
                1 => Response::Delete(true),
                v => {
                    return Err(WireError::BadPayload {
                        what: format!("delete flag must be 0/1, got {v}"),
                    })
                }
            },
            op::STATS_OK => Response::Stats(r.text("stats json")?),
            op::FLUSH_OK => Response::Flush,
            op::FLIGHT_OK => Response::Flight(r.text("flight jsonl")?),
            op::PONG => Response::Pong,
            op::ERROR => {
                let code = ErrorCode::from_u16(r.u16("error code")?);
                Response::Error {
                    code,
                    message: r.text("error message")?,
                }
            }
            got => return Err(WireError::BadOpcode { got }),
        };
        r.finish()?;
        Ok(msg)
    })()
    .map_err(fail)?;
    Ok(Envelope {
        request_id,
        trace_id,
        span_id,
        msg,
    })
}

/// One step of an incremental frame read.
#[derive(Debug)]
pub enum ReadStep {
    /// A complete payload (length prefix stripped).
    Frame(Vec<u8>),
    /// No complete frame yet (the read timed out mid-stream); call again.
    /// Any partial bytes stay buffered, so polling never loses sync.
    Idle,
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The peer closed the connection mid-frame.
    DirtyEof,
    /// A frame declared a payload over the maximum.
    TooLarge {
        /// The declared payload length.
        len: usize,
    },
    /// The underlying read failed.
    Err(io::Error),
}

/// Incremental frame reader over a blocking (optionally read-timeout)
/// stream. Buffers partial frames across calls, so a socket read timeout
/// — used by the server to poll its shutdown flag — never desynchronizes
/// the stream.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    max_frame: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream with a payload-size bound.
    pub fn new(inner: R, max_frame: usize) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(4096),
            max_frame,
        }
    }

    /// Extracts a buffered complete frame, if any.
    fn take_buffered(&mut self) -> Option<ReadStep> {
        if self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if len < HEADER_LEN || len > self.max_frame {
            return Some(ReadStep::TooLarge { len });
        }
        if self.buf.len() < 4 + len {
            return None;
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Some(ReadStep::Frame(payload))
    }

    /// Reads until one complete frame is buffered, the stream goes idle
    /// (read timeout), or the peer closes.
    pub fn next_frame(&mut self) -> ReadStep {
        loop {
            if let Some(step) = self.take_buffered() {
                return step;
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        ReadStep::Eof
                    } else {
                        ReadStep::DirtyEof
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return ReadStep::Idle;
                }
                Err(e) => return ReadStep::Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn env(msg: Request) -> Envelope<Request> {
        Envelope {
            request_id: 7,
            trace_id: 11,
            span_id: 13,
            msg,
        }
    }

    #[test]
    fn request_roundtrip_all_opcodes() {
        let reqs = [
            Request::Query {
                k: 3,
                timeout_ms: 250,
                vector: vec![0.0, 0.5, 1.0, f64::MIN_POSITIVE],
            },
            Request::Insert { row: vec![0.25; 7] },
            Request::Delete { id: u64::MAX },
            Request::Stats,
            Request::Flush,
            Request::Flight,
            Request::Ping,
        ];
        for msg in reqs {
            let e = env(msg);
            let frame = encode_request(&e);
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, frame.len());
            let back = decode_request(&frame[4..]).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn response_roundtrip_all_opcodes() {
        let resps = [
            Response::Query(vec![(0, 0.125), (u64::MAX, f64::NAN)]),
            Response::Insert(42),
            Response::Delete(true),
            Response::Delete(false),
            Response::Stats("{\"live\": 3}".into()),
            Response::Flush,
            Response::Flight("{\"trace_id\":1}\n".into()),
            Response::Pong,
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "window full".into(),
            },
        ];
        for msg in resps {
            let e = Envelope {
                request_id: 1,
                trace_id: 2,
                span_id: 3,
                msg,
            };
            let frame = encode_response(&e);
            let back = decode_response(&frame[4..]).unwrap();
            // NaN-safe comparison: compare the re-encoded bytes.
            assert_eq!(encode_response(&back), frame);
            assert_eq!(back.request_id, 1);
            assert_eq!(back.trace_id, 2);
        }
    }

    #[test]
    fn bad_version_and_opcode_are_structured_errors() {
        let mut frame = encode_request(&env(Request::Ping));
        frame[4] = 99; // version byte
        let err = decode_request(&frame[4..]).unwrap_err();
        assert_eq!(err.error, WireError::BadVersion { got: 99 });
        // Header ids still salvaged for the error reply.
        assert_eq!(err.request_id, 7);

        let mut frame = encode_request(&env(Request::Ping));
        frame[5] = 0x6E; // opcode byte
        let err = decode_request(&frame[4..]).unwrap_err();
        assert_eq!(err.error, WireError::BadOpcode { got: 0x6E });
        assert_eq!((err.request_id, err.trace_id, err.span_id), (7, 11, 13));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected_at_every_length() {
        let frame = encode_request(&env(Request::Query {
            k: 2,
            timeout_ms: 0,
            vector: vec![0.5, 0.25],
        }));
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            assert!(
                decode_request(&payload[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        let mut long = payload.to_vec();
        long.push(0);
        let err = decode_request(&long).unwrap_err();
        assert!(matches!(
            err.error,
            WireError::TrailingBytes { .. } | WireError::BadPayload { .. }
        ));
    }

    #[test]
    fn hostile_counts_cannot_balloon_memory() {
        // A query declaring 2^31 dimensions in a 40-byte body.
        let frame = encode_frame(1, 0, 0, op::QUERY, |out| {
            push_u32(out, 5);
            push_u32(out, 0);
            push_u32(out, u32::MAX); // dim
        });
        let err = decode_request(&frame[4..]).unwrap_err();
        assert!(matches!(err.error, WireError::BadPayload { .. }));
        // Same for a response with a hostile neighbor count.
        let frame = encode_frame(1, 0, 0, op::QUERY_OK, |out| push_u32(out, u32::MAX));
        let err = decode_response(&frame[4..]).unwrap_err();
        assert!(matches!(err.error, WireError::BadPayload { .. }));
    }

    #[test]
    fn frame_reader_reassembles_split_and_batched_frames() {
        let a = encode_request(&env(Request::Ping));
        let b = encode_request(&env(Request::Delete { id: 9 }));
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b);
        let mut fr = FrameReader::new(Cursor::new(bytes), DEFAULT_MAX_FRAME);
        match fr.next_frame() {
            ReadStep::Frame(p) => assert_eq!(p, a[4..]),
            other => panic!("expected frame, got {other:?}"),
        }
        match fr.next_frame() {
            ReadStep::Frame(p) => assert_eq!(p, b[4..]),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(matches!(fr.next_frame(), ReadStep::Eof));
    }

    #[test]
    fn frame_reader_flags_oversized_and_dirty_streams() {
        // Oversized length prefix: detected before reading the payload.
        let mut bytes = vec![];
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        let mut fr = FrameReader::new(Cursor::new(bytes), 1024);
        assert!(matches!(
            fr.next_frame(),
            ReadStep::TooLarge { len } if len == u32::MAX as usize
        ));
        // A length prefix below the header length is equally hostile.
        let mut fr = FrameReader::new(Cursor::new(3u32.to_le_bytes().to_vec()), 1024);
        assert!(matches!(fr.next_frame(), ReadStep::TooLarge { len: 3 }));
        // Mid-frame EOF is distinguishable from a clean close.
        let good = encode_request(&env(Request::Ping));
        let mut fr = FrameReader::new(Cursor::new(good[..good.len() - 2].to_vec()), 1024);
        assert!(matches!(fr.next_frame(), ReadStep::DirtyEof));
    }

    #[test]
    fn error_codes_roundtrip_and_map_from_serve_errors() {
        use simpim_serve::ServeError;
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExpired,
            ErrorCode::Closed,
            ErrorCode::InvalidArgument,
            ErrorCode::Config,
            ErrorCode::Internal,
            ErrorCode::BadFrame,
            ErrorCode::UnsupportedVersion,
        ] {
            assert_eq!(ErrorCode::from_u16(code.to_u16()), code);
        }
        assert_eq!(ErrorCode::from_u16(9999), ErrorCode::Internal);
        assert_eq!(
            ErrorCode::from_serve(&ServeError::Overloaded),
            ErrorCode::Overloaded
        );
        assert_eq!(
            ErrorCode::from_serve(&ServeError::DeadlineExpired),
            ErrorCode::DeadlineExpired
        );
        assert_eq!(
            ErrorCode::from_serve(&ServeError::InvalidArgument { what: "k".into() }),
            ErrorCode::InvalidArgument
        );
        assert_eq!(
            ErrorCode::from_serve(&ServeError::Internal {
                what: "panic".into()
            }),
            ErrorCode::Internal
        );
    }
}
