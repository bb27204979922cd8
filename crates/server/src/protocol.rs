//! The SharedDB wire protocol: length-prefixed binary frames over TCP.
//!
//! ## Framing
//!
//! Every frame is `u32 length (LE) | u8 opcode | body`; the length counts the
//! opcode byte plus the body. Integers are little-endian; strings are
//! `u32 length | UTF-8 bytes`; values are a tag byte and their data, and
//! `values` a `u32` count of them. These primitives are
//! [`shareddb_common::codec`], the one value codec of the workspace: the
//! write-ahead log stores its records with it too.
//!
//! ## Frames
//!
//! | Opcode | Direction | Frame | Body |
//! |--------|-----------|-------|------|
//! | `0x01` | C→S | [`Frame::Hello`] | `u16 version, string client_name` |
//! | `0x02` | C→S | [`Frame::Query`] | `u64 request_id, string sql` — ad-hoc SQL, matched against the compiled statement types by auto-parameterisation |
//! | `0x03` | C→S | [`Frame::Prepare`] | `u64 request_id, string statement_name` |
//! | `0x04` | C→S | [`Frame::ExecutePrepared`] | `u64 request_id, u32 statement_id, values params` |
//! | `0x05` | — | *retired in v5* | was the `Stats` request; never reused, decodes as an unknown opcode |
//! | `0x06` | C→S | [`Frame::Goodbye`] | empty |
//! | `0x07` | C→S | [`Frame::Ping`] | `u64 request_id` — keepalive no-op |
//! | `0x08` | — | *retired in v6* | was the `Explain` request; never reused, decodes as an unknown opcode |
//! | `0x81` | S→C | [`Frame::HelloOk`] | `u16 version, string server_name, u32 statement_count` |
//! | `0x82` | S→C | [`Frame::Prepared`] | `u64 request_id, u32 statement_id, u32 param_count, u8 is_update` |
//! | `0x83` | S→C | [`Frame::ResultChunk`] | `u64 request_id, u8 flags, u64 rows_affected, [schema], [rows]` |
//! | `0x84` | S→C | [`Frame::Error`] | `u64 request_id, u8 code, u8 retryable, string message` |
//! | `0x85` | — | *retired in v5* | was the `Stats` reply; the same port answers `GET /metrics` with a superset |
//! | `0x86` | S→C | [`Frame::GoodbyeOk`] | empty |
//! | `0x87` | S→C | [`Frame::Pong`] | `u64 request_id` |
//! | `0x88` | — | *retired in v6* | was the `Explain` reply; `EXPLAIN [ANALYZE] …` is a [`Frame::Query`] answered with `PLAN` rows |
//!
//! A query result is a sequence of [`Frame::ResultChunk`]s sharing the
//! request id: the first carries [`chunk_flags::FIRST`] and the result schema,
//! the final one [`chunk_flags::LAST`]. Updates are a single chunk with
//! [`chunk_flags::UPDATE`] and `rows_affected`. Responses to the requests of
//! one connection are delivered strictly in submission order, which is what
//! makes client-side pipelining possible.
//!
//! Backpressure rejections use [`Frame::Error`] with `retryable = true`
//! (error code [`error_codes::OVERLOADED`]): the statement was *not* admitted
//! and the client may back off and retry.

use shareddb_common::codec::{
    malformed, put_string, put_u16, put_u32, put_u64, put_u8, put_values, Cursor,
};
use shareddb_common::{Column, DataType, Error, Result, Tuple, Value};
use std::io::{Read, Write};

/// Protocol version spoken by this build. v4 added the `Explain` frames —
/// EXPLAIN / EXPLAIN ANALYZE of a statement's view of the shared global
/// plan as a typed tree; v5 retired the statistics frames (opcodes `0x05` /
/// `0x85`): counters are read from `GET /metrics` on the same port; v6
/// retired the `Explain` frames (opcodes `0x08` / `0x88`): `EXPLAIN
/// [ANALYZE] …` is a [`Frame::Query`] answered with one `PLAN` row per line
/// of the rendered plan.
pub const PROTOCOL_VERSION: u16 = 6;

/// Frames larger than this are rejected (malformed or hostile peer).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Flag bits of [`Frame::ResultChunk`].
pub mod chunk_flags {
    /// First chunk of a result (carries the schema for row results).
    pub const FIRST: u8 = 1;
    /// Final chunk of a result.
    pub const LAST: u8 = 2;
    /// The result is an update acknowledgement (`rows_affected` is valid,
    /// there is no schema and there are no rows).
    pub const UPDATE: u8 = 4;
}

/// Error codes of [`Frame::Error`].
pub mod error_codes {
    /// SQL parse error.
    pub const PARSE: u8 = 1;
    /// Unknown table.
    pub const UNKNOWN_TABLE: u8 = 2;
    /// Unknown column.
    pub const UNKNOWN_COLUMN: u8 = 3;
    /// Value type mismatch.
    pub const TYPE_MISMATCH: u8 = 4;
    /// Bad prepared-statement parameter.
    pub const INVALID_PARAMETER: u8 = 5;
    /// The statement type is not part of the compiled global plan.
    pub const UNKNOWN_STATEMENT: u8 = 6;
    /// Constraint violation.
    pub const CONSTRAINT: u8 = 7;
    /// The server is shutting down.
    pub const SHUTDOWN: u8 = 8;
    /// The statement missed its deadline.
    pub const DEADLINE: u8 = 9;
    /// Internal error.
    pub const INTERNAL: u8 = 10;
    /// Recovery error.
    pub const RECOVERY: u8 = 11;
    /// I/O error.
    pub const IO: u8 = 12;
    /// Recognised but unsupported feature.
    pub const UNSUPPORTED: u8 = 13;
    /// Admission control rejected the request; retry after backing off.
    pub const OVERLOADED: u8 = 14;
}

/// One column of a result schema on the wire.
pub type WireColumn = (String, DataType);

/// A protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client greeting; must be the first frame of a connection.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// Client identification for diagnostics.
        client_name: String,
    },
    /// Ad-hoc SQL execution (auto-parameterised against the compiled plan).
    Query {
        /// Client-chosen id echoed on every response frame.
        request_id: u64,
        /// The SQL text.
        sql: String,
    },
    /// Looks up a registered statement type by name.
    Prepare {
        /// Client-chosen id echoed on the response.
        request_id: u64,
        /// Statement name, e.g. `"getBestSellers"`.
        name: String,
    },
    /// Executes a prepared statement with bound parameters.
    ExecutePrepared {
        /// Client-chosen id echoed on every response frame.
        request_id: u64,
        /// Statement id from [`Frame::Prepared`].
        statement_id: u32,
        /// Positional parameters.
        params: Vec<Value>,
    },
    /// Orderly connection termination.
    Goodbye,
    /// Keepalive no-op: answered with [`Frame::Pong`] without touching the
    /// engine. Lets idle clients verify liveness and lets tests exercise the
    /// incremental frame decoder with tiny frames.
    Ping {
        /// Client-chosen id echoed on the response.
        request_id: u64,
    },
    /// Server greeting.
    HelloOk {
        /// Protocol version the server speaks.
        version: u16,
        /// Server identification.
        server_name: String,
        /// Number of registered statement types.
        statement_count: u32,
    },
    /// Prepared-statement metadata.
    Prepared {
        /// Echoed request id.
        request_id: u64,
        /// Statement id for [`Frame::ExecutePrepared`].
        statement_id: u32,
        /// Number of positional parameters the statement takes.
        param_count: u32,
        /// True for INSERT/UPDATE/DELETE statements.
        is_update: bool,
    },
    /// One chunk of a result (see [`chunk_flags`]).
    ResultChunk {
        /// Echoed request id.
        request_id: u64,
        /// Chunk flags.
        flags: u8,
        /// Affected row count (update results only).
        rows_affected: u64,
        /// Result schema (first chunk of a row result only).
        schema: Vec<WireColumn>,
        /// Result rows of this chunk.
        rows: Vec<Vec<Value>>,
    },
    /// Request failure.
    Error {
        /// Echoed request id (0 for connection-level errors).
        request_id: u64,
        /// Error code (see [`error_codes`]).
        code: u8,
        /// True when the request may be retried after backing off.
        retryable: bool,
        /// Human-readable description.
        message: String,
    },
    /// Acknowledges [`Frame::Goodbye`]; the server closes after sending it.
    GoodbyeOk,
    /// Answers [`Frame::Ping`].
    Pong {
        /// Echoed request id.
        request_id: u64,
    },
}

fn data_type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Bool => 4,
        DataType::Date => 5,
    }
}

fn data_type_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Bool,
        5 => DataType::Date,
        other => return Err(malformed(format!("bad data type tag {other}"))),
    })
}

/// Opcode of [`Frame::ResultChunk`].
const RESULT_CHUNK: u8 = 0x83;

/// The body of a [`Frame::ResultChunk`] after the opcode, each row read
/// through its iterator — from a `Vec<Value>` or from a [`Tuple`] of either
/// shape, where the values lie — and each column name written from its
/// parts: `(qualifier, name, type)` goes out as `QUALIFIER.NAME`, or `NAME`.
fn put_result_chunk<'a, R: ExactSizeIterator<Item = &'a Value>>(
    buf: &mut Vec<u8>,
    request_id: u64,
    flags: u8,
    rows_affected: u64,
    schema: impl ExactSizeIterator<Item = (Option<&'a str>, &'a str, DataType)>,
    rows: impl ExactSizeIterator<Item = R>,
) {
    put_u64(buf, request_id);
    put_u8(buf, flags);
    put_u64(buf, rows_affected);
    put_u32(buf, schema.len() as u32);
    for (qualifier, name, dt) in schema {
        let qualified = qualifier.map_or(0, |q| q.len() + 1);
        put_u32(buf, (qualified + name.len()) as u32);
        if let Some(qualifier) = qualifier {
            buf.extend_from_slice(qualifier.as_bytes());
            buf.push(b'.');
        }
        buf.extend_from_slice(name.as_bytes());
        put_u8(buf, data_type_tag(dt));
    }
    put_u32(buf, rows.len() as u32);
    rows.for_each(|row| put_values(buf, row));
}

/// Appends to `buf` the bytes of `Frame::ResultChunk { request_id, flags,
/// rows_affected: 0, schema, rows }.encode()` — `schema` being the qualified
/// names and types of `columns` — without building the frame or a name: the
/// rows of a result are encoded from the tuples the engine handed over —
/// stored versions and joins of them — value by value, no row is copied or
/// flattened on the way. Returns false, leaving `buf` as it was, when the
/// frame would exceed [`MAX_FRAME_LEN`].
pub fn encode_result_chunk(
    buf: &mut Vec<u8>,
    request_id: u64,
    flags: u8,
    columns: &[Column],
    rows: &[Tuple],
) -> bool {
    let start = buf.len();
    put_u32(buf, 0); // the length, once it is known
    put_u8(buf, RESULT_CHUNK);
    let schema = columns
        .iter()
        .map(|c| (c.qualifier.as_deref(), c.name.as_str(), c.data_type));
    let rows = rows.iter().map(Tuple::iter);
    put_result_chunk(buf, request_id, flags, 0, schema, rows);
    let len = buf.len() - start - 4;
    if len > MAX_FRAME_LEN {
        buf.truncate(start);
        return false;
    }
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    true
}

// ---------------------------------------------------------------------------
// Frame encoding
// ---------------------------------------------------------------------------

impl Frame {
    fn opcode(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Query { .. } => 0x02,
            Frame::Prepare { .. } => 0x03,
            Frame::ExecutePrepared { .. } => 0x04,
            Frame::Goodbye => 0x06,
            Frame::Ping { .. } => 0x07,
            Frame::HelloOk { .. } => 0x81,
            Frame::Prepared { .. } => 0x82,
            Frame::ResultChunk { .. } => RESULT_CHUNK,
            Frame::Error { .. } => 0x84,
            Frame::GoodbyeOk => 0x86,
            Frame::Pong { .. } => 0x87,
        }
    }

    /// Encodes the frame (length prefix included) into a byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u8(&mut body, self.opcode());
        match self {
            Frame::Hello {
                version,
                client_name,
            } => {
                put_u16(&mut body, *version);
                put_string(&mut body, client_name);
            }
            Frame::Query { request_id, sql } => {
                put_u64(&mut body, *request_id);
                put_string(&mut body, sql);
            }
            Frame::Prepare { request_id, name } => {
                put_u64(&mut body, *request_id);
                put_string(&mut body, name);
            }
            Frame::ExecutePrepared {
                request_id,
                statement_id,
                params,
            } => {
                put_u64(&mut body, *request_id);
                put_u32(&mut body, *statement_id);
                put_values(&mut body, params.iter());
            }
            Frame::Ping { request_id } | Frame::Pong { request_id } => {
                put_u64(&mut body, *request_id);
            }
            Frame::Goodbye | Frame::GoodbyeOk => {}
            Frame::HelloOk {
                version,
                server_name,
                statement_count,
            } => {
                put_u16(&mut body, *version);
                put_string(&mut body, server_name);
                put_u32(&mut body, *statement_count);
            }
            Frame::Prepared {
                request_id,
                statement_id,
                param_count,
                is_update,
            } => {
                put_u64(&mut body, *request_id);
                put_u32(&mut body, *statement_id);
                put_u32(&mut body, *param_count);
                put_u8(&mut body, *is_update as u8);
            }
            Frame::ResultChunk {
                request_id,
                flags,
                rows_affected,
                schema,
                rows,
            } => {
                let schema = schema.iter().map(|(name, dt)| (None, name.as_str(), *dt));
                let rows = rows.iter().map(|r| r.iter());
                put_result_chunk(&mut body, *request_id, *flags, *rows_affected, schema, rows);
            }
            Frame::Error {
                request_id,
                code,
                retryable,
                message,
            } => {
                put_u64(&mut body, *request_id);
                put_u8(&mut body, *code);
                put_u8(&mut body, *retryable as u8);
                put_string(&mut body, message);
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }

    /// Decodes a frame body (the bytes after the length prefix).
    pub fn decode(body: &[u8]) -> Result<Frame> {
        let mut c = Cursor::new(body);
        let opcode = c.u8()?;
        let frame = match opcode {
            0x01 => Frame::Hello {
                version: c.u16()?,
                client_name: c.string()?,
            },
            0x02 => Frame::Query {
                request_id: c.u64()?,
                sql: c.string()?,
            },
            0x03 => Frame::Prepare {
                request_id: c.u64()?,
                name: c.string()?,
            },
            0x04 => Frame::ExecutePrepared {
                request_id: c.u64()?,
                statement_id: c.u32()?,
                params: c.values()?,
            },
            0x06 => Frame::Goodbye,
            0x07 => Frame::Ping {
                request_id: c.u64()?,
            },
            0x81 => Frame::HelloOk {
                version: c.u16()?,
                server_name: c.string()?,
                statement_count: c.u32()?,
            },
            0x82 => Frame::Prepared {
                request_id: c.u64()?,
                statement_id: c.u32()?,
                param_count: c.u32()?,
                is_update: c.u8()? != 0,
            },
            0x83 => {
                let request_id = c.u64()?;
                let flags = c.u8()?;
                let rows_affected = c.u64()?;
                let n_cols = c.u32()? as usize;
                let mut schema = Vec::with_capacity(n_cols.min(1024));
                for _ in 0..n_cols {
                    let name = c.string()?;
                    let dt = data_type_from_tag(c.u8()?)?;
                    schema.push((name, dt));
                }
                let n_rows = c.u32()? as usize;
                let mut rows = Vec::with_capacity(n_rows.min(4096));
                for _ in 0..n_rows {
                    rows.push(c.values()?);
                }
                Frame::ResultChunk {
                    request_id,
                    flags,
                    rows_affected,
                    schema,
                    rows,
                }
            }
            0x84 => Frame::Error {
                request_id: c.u64()?,
                code: c.u8()?,
                retryable: c.u8()? != 0,
                message: c.string()?,
            },
            0x86 => Frame::GoodbyeOk,
            0x87 => Frame::Pong {
                request_id: c.u64()?,
            },
            other => return Err(malformed(format!("unknown opcode {other:#x}"))),
        };
        c.done()?;
        Ok(frame)
    }
}

/// Writes one frame to a stream. Refuses frames whose body exceeds
/// [`MAX_FRAME_LEN`] — emitting one would silently truncate the `u32` length
/// prefix and desynchronise the stream for the peer.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let bytes = frame.encode();
    if bytes.len() - 4 > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
                bytes.len() - 4
            ),
        ));
    }
    w.write_all(&bytes)
}

/// Incremental frame decoder for nonblocking readers.
///
/// The reactor feeds whatever bytes `read(2)` returned via
/// [`FrameDecoder::push`] and pops complete frames with
/// [`FrameDecoder::poll_frame`]; partial frames simply stay buffered until
/// more bytes arrive. This replaces blocking `read_exact` framing: a client
/// that stalls mid-frame costs a buffer, not a parked thread.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes to the frame buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is decoded frames.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 16 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, or `Ok(None)` when more bytes are
    /// needed. A malformed length prefix or body is a protocol error; the
    /// connection must be dropped (the stream can no longer be framed).
    pub fn poll_frame(&mut self) -> Result<Option<Frame>> {
        let available = &self.buf[self.pos..];
        if available.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(available[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(malformed(format!("bad frame length {len}")));
        }
        if available.len() < 4 + len {
            return Ok(None);
        }
        let frame = Frame::decode(&available[4..4 + len])?;
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// True when a frame has started arriving but is not yet complete (after
    /// [`FrameDecoder::poll_frame`] has been polled to exhaustion). Drives
    /// the stalled-client timeout.
    pub fn mid_frame(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Bytes currently buffered (complete + partial).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The undecoded bytes, without consuming them. The reactor sniffs these
    /// on a fresh connection to tell an HTTP metrics scrape (ASCII method
    /// prefix) from a binary frame stream (LE length prefix).
    pub fn peek(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Discards any partially received frame (used when a draining server
    /// stops reading).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }
}

/// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF at a
/// frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(malformed("eof inside length prefix"));
            }
            Ok(n) => filled += n,
            Err(e) => return Err(Error::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(malformed(format!("bad frame length {len}")));
    }
    let mut body = vec![0u8; len];
    let mut read = 0;
    while read < len {
        match r.read(&mut body[read..]) {
            Ok(0) => return Err(malformed("eof inside frame body")),
            Ok(n) => read += n,
            Err(e) => return Err(Error::Io(e.to_string())),
        }
    }
    Frame::decode(&body).map(Some)
}

/// Maps an engine error to its wire representation `(code, retryable)`.
pub fn error_to_wire(error: &Error) -> (u8, bool) {
    use error_codes::*;
    match error {
        Error::Parse(_) => (PARSE, false),
        Error::UnknownTable(_) => (UNKNOWN_TABLE, false),
        Error::UnknownColumn(_) => (UNKNOWN_COLUMN, false),
        Error::TypeMismatch { .. } => (TYPE_MISMATCH, false),
        Error::InvalidParameter(_) => (INVALID_PARAMETER, false),
        Error::UnknownStatement(_) => (UNKNOWN_STATEMENT, false),
        Error::ConstraintViolation(_) => (CONSTRAINT, false),
        Error::EngineShutdown => (SHUTDOWN, false),
        Error::Overloaded(_) => (OVERLOADED, true),
        Error::DeadlineExceeded => (DEADLINE, false),
        Error::Internal(_) => (INTERNAL, false),
        Error::Recovery(_) => (RECOVERY, false),
        Error::Io(_) => (IO, false),
        Error::Unsupported(_) => (UNSUPPORTED, false),
    }
}

/// Reconstructs an engine error from its wire representation.
pub fn wire_to_error(code: u8, retryable: bool, message: &str) -> Error {
    use error_codes::*;
    let msg = message.to_string();
    match code {
        PARSE => Error::Parse(msg),
        UNKNOWN_TABLE => Error::UnknownTable(msg),
        UNKNOWN_COLUMN => Error::UnknownColumn(msg),
        TYPE_MISMATCH => Error::TypeMismatch {
            expected: "see message".into(),
            found: msg,
        },
        INVALID_PARAMETER => Error::InvalidParameter(msg),
        UNKNOWN_STATEMENT => Error::UnknownStatement(msg),
        CONSTRAINT => Error::ConstraintViolation(msg),
        SHUTDOWN => Error::EngineShutdown,
        DEADLINE => Error::DeadlineExceeded,
        RECOVERY => Error::Recovery(msg),
        IO => Error::Io(msg),
        UNSUPPORTED => Error::Unsupported(msg),
        OVERLOADED => Error::Overloaded(msg),
        _ => {
            if retryable {
                Error::Overloaded(msg)
            } else {
                Error::Internal(msg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let encoded = frame.encode();
        let len = u32::from_le_bytes(encoded[..4].try_into().unwrap()) as usize;
        assert_eq!(len, encoded.len() - 4);
        let decoded = Frame::decode(&encoded[4..]).unwrap();
        assert_eq!(decoded, frame);
        // And through the stream reader.
        let mut cursor = std::io::Cursor::new(encoded);
        let read = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(read, frame);
    }

    /// A result chunk encoded straight from the engine's tuples — stored
    /// rows, joins of rows, joins of joins — and its schema's columns,
    /// qualified or not, is byte for byte the frame built from copies of
    /// their values and names, behind whatever the buffer already held, and
    /// reads back as that frame; one past the limit is refused and leaves the
    /// buffer as it was.
    #[test]
    fn result_chunks_encode_straight_from_tuples() {
        let columns = [
            Column::new("I_ID", DataType::Int).with_qualifier("ITEM"),
            Column::nullable("I_TITLE", DataType::Text).with_qualifier("i"),
            Column::nullable("SUM0_OL_QTY", DataType::Text),
        ];
        let schema: Vec<(String, DataType)> = vec![
            ("ITEM.I_ID".into(), DataType::Int),
            ("I.I_TITLE".into(), DataType::Text),
            ("SUM0_OL_QTY".into(), DataType::Text),
        ];
        let named: Vec<_> = columns.iter().map(|c| c.qualified_name()).collect();
        assert!(named.iter().eq(schema.iter().map(|(name, _)| name)));
        let item = |i: i64| Tuple::new(vec![Value::Int(i), Value::text(format!("title {i}"))]);
        let author = |i: i64| Tuple::new(vec![Value::text(format!("author {i}"))]);
        let row = |i: i64| match i % 3 {
            0 => Tuple::new(vec![Value::Int(i), Value::Null, Value::text("flat")]),
            1 => item(i).concat(&author(i)),
            _ => Tuple::empty().concat(&item(i)).concat(&author(i)),
        };
        let flags = chunk_flags::FIRST | chunk_flags::LAST;
        // Each reply goes behind the ones before it, as on a connection whose
        // socket has not taken them yet.
        let mut buf = vec![0xAA];
        for n in [0, 1, 50] {
            let rows: Vec<Tuple> = (0..n).map(row).collect();
            let unflushed = buf.clone();
            assert!(encode_result_chunk(&mut buf, 9, flags, &columns, &rows));
            let frame = Frame::ResultChunk {
                request_id: 9,
                flags,
                rows_affected: 0,
                schema: schema.clone(),
                rows: rows.iter().map(|t| t.values().to_vec()).collect(),
            };
            assert_eq!(buf[..unflushed.len()], unflushed[..], "{n} rows");
            assert_eq!(buf[unflushed.len()..], frame.encode()[..], "{n} rows");
            let mut appended = &buf[unflushed.len()..];
            assert_eq!(read_frame(&mut appended).unwrap().unwrap(), frame);
        }
        // Nine references to one 8 MiB row: 72 MiB on the wire.
        let big = Tuple::new(vec![Value::text("x".repeat(MAX_FRAME_LEN / 8))]);
        let mut buf = vec![0xAA];
        assert!(encode_result_chunk(
            &mut buf,
            9,
            flags,
            &[],
            &vec![big.clone(); 7]
        ));
        buf.truncate(1);
        assert!(!encode_result_chunk(
            &mut buf,
            9,
            flags,
            &columns,
            &vec![big; 9]
        ));
        assert_eq!(buf, [0xAA]);
    }

    #[test]
    fn every_frame_round_trips() {
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
            client_name: "test-client".into(),
        });
        round_trip(Frame::Query {
            request_id: 7,
            sql: "SELECT * FROM ITEM WHERE I_ID = 3".into(),
        });
        round_trip(Frame::Prepare {
            request_id: 8,
            name: "getBestSellers".into(),
        });
        round_trip(Frame::ExecutePrepared {
            request_id: 9,
            statement_id: 4,
            params: vec![
                Value::Null,
                Value::Int(-5),
                Value::Float(2.75),
                Value::text("BOOKS"),
                Value::Bool(true),
                Value::Date(20_000),
            ],
        });
        round_trip(Frame::Goodbye);
        round_trip(Frame::Ping { request_id: 77 });
        round_trip(Frame::Pong { request_id: 77 });
        round_trip(Frame::HelloOk {
            version: PROTOCOL_VERSION,
            server_name: "shareddb".into(),
            statement_count: 28,
        });
        round_trip(Frame::Prepared {
            request_id: 8,
            statement_id: 4,
            param_count: 2,
            is_update: true,
        });
        round_trip(Frame::ResultChunk {
            request_id: 9,
            flags: chunk_flags::FIRST | chunk_flags::LAST,
            rows_affected: 0,
            schema: vec![
                ("I_ID".into(), DataType::Int),
                ("I_TITLE".into(), DataType::Text),
            ],
            rows: vec![
                vec![Value::Int(1), Value::text("a book")],
                vec![Value::Int(2), Value::Null],
            ],
        });
        round_trip(Frame::ResultChunk {
            request_id: 11,
            flags: chunk_flags::FIRST | chunk_flags::LAST | chunk_flags::UPDATE,
            rows_affected: 3,
            schema: vec![],
            rows: vec![],
        });
        round_trip(Frame::Error {
            request_id: 12,
            code: error_codes::OVERLOADED,
            retryable: true,
            message: "queue full".into(),
        });
        round_trip(Frame::GoodbyeOk);
    }

    #[test]
    fn incremental_decoder_handles_partial_and_coalesced_frames() {
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                client_name: "inc".into(),
            },
            Frame::Ping { request_id: 1 },
            Frame::Query {
                request_id: 2,
                sql: "SELECT * FROM ITEM WHERE I_ID = -5".into(),
            },
            Frame::Goodbye,
        ];
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();

        // Byte-by-byte: every push leaves the decoder either mid-frame or at
        // a boundary, and the frames come out unchanged.
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for b in &wire {
            decoder.push(std::slice::from_ref(b));
            while let Some(frame) = decoder.poll_frame().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, frames);
        assert!(!decoder.mid_frame());
        assert_eq!(decoder.buffered(), 0);

        // All at once: multiple frames coalesced into one read.
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        let mut decoded = Vec::new();
        while let Some(frame) = decoder.poll_frame().unwrap() {
            decoded.push(frame);
        }
        assert_eq!(decoded, frames);

        // A truncated tail stays buffered as a partial frame.
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire[..wire.len() - 1]);
        let mut decoded = Vec::new();
        while let Some(frame) = decoder.poll_frame().unwrap() {
            decoded.push(frame);
        }
        assert_eq!(decoded.len(), frames.len() - 1);
        assert!(decoder.mid_frame());
        decoder.push(&wire[wire.len() - 1..]);
        assert_eq!(decoder.poll_frame().unwrap().unwrap(), Frame::Goodbye);
        assert!(!decoder.mid_frame());
    }

    #[test]
    fn incremental_decoder_rejects_bad_lengths() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&[0xff, 0xff, 0xff, 0xff]);
        assert!(decoder.poll_frame().is_err());
        let mut decoder = FrameDecoder::new();
        decoder.push(&[0, 0, 0, 0]);
        assert!(decoder.poll_frame().is_err());
    }

    #[test]
    fn clean_eof_is_none() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let encoded = Frame::Goodbye.encode();
        let mut cursor = std::io::Cursor::new(encoded[..encoded.len() - 1].to_vec());
        // Goodbye is 1 body byte; truncating it truncates the body.
        assert!(read_frame(&mut cursor).is_err());
        // Garbage length.
        let mut cursor = std::io::Cursor::new(vec![0xff, 0xff, 0xff, 0xff, 0x06]);
        assert!(read_frame(&mut cursor).is_err());
        // Unknown opcode — the retired statistics and explain pairs
        // included, whatever body follows it.
        assert!(Frame::decode(&[0x77]).is_err());
        assert!(Frame::decode(&[0x05, 10, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(Frame::decode(&[0x85]).is_err());
        let old_explain = [0x08, 14, 0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 0];
        assert!(Frame::decode(&[&old_explain[..], b"getItem"].concat()).is_err());
        assert!(Frame::decode(&[0x88, 14, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Trailing bytes.
        assert!(Frame::decode(&[0x06, 0x00]).is_err());
    }

    #[test]
    fn error_codes_round_trip_to_engine_errors() {
        let cases = vec![
            Error::Parse("p".into()),
            Error::UnknownTable("t".into()),
            Error::UnknownColumn("c".into()),
            Error::InvalidParameter("i".into()),
            Error::UnknownStatement("s".into()),
            Error::ConstraintViolation("k".into()),
            Error::EngineShutdown,
            Error::Overloaded("q".into()),
            Error::DeadlineExceeded,
            Error::Recovery("r".into()),
            Error::Io("o".into()),
            Error::Unsupported("u".into()),
        ];
        for error in cases {
            let (code, retryable) = error_to_wire(&error);
            let back = wire_to_error(code, retryable, &format!("{error}"));
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(&error)
            );
            assert_eq!(back.is_retryable(), error.is_retryable());
        }
    }
}
