//! The SharedDB wire protocol: length-prefixed binary frames over TCP.
//!
//! ## Framing
//!
//! Every frame is `u32 length (LE) | u8 opcode | body`; the length counts the
//! opcode byte plus the body. Integers are little-endian; strings are
//! `u32 length | UTF-8 bytes`; values are tagged (see [`encode_value`]).
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
//! | `0x08` | C→S | [`Frame::Explain`] | `u64 request_id, u8 analyze, string sql` — plan introspection (v4) |
//! | `0x81` | S→C | [`Frame::HelloOk`] | `u16 version, string server_name, u32 statement_count` |
//! | `0x82` | S→C | [`Frame::Prepared`] | `u64 request_id, u32 statement_id, u32 param_count, u8 is_update` |
//! | `0x83` | S→C | [`Frame::ResultChunk`] | `u64 request_id, u8 flags, u64 rows_affected, [schema], [rows]` |
//! | `0x84` | S→C | [`Frame::Error`] | `u64 request_id, u8 code, u8 retryable, string message` |
//! | `0x85` | — | *retired in v5* | was the `Stats` reply; the same port answers `GET /metrics` with a superset |
//! | `0x86` | S→C | [`Frame::GoodbyeOk`] | empty |
//! | `0x87` | S→C | [`Frame::Pong`] | `u64 request_id` |
//! | `0x88` | S→C | [`Frame::ExplainReply`] | annotated statement subtree, see [`WireExplain`] (v4) |
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

use shareddb_common::{Column, DataType, Error, Result, Tuple, Value};
use std::io::{Read, Write};

/// Protocol version spoken by this build. v4 added
/// [`Frame::Explain`]/[`Frame::ExplainReply`] — EXPLAIN / EXPLAIN ANALYZE of
/// a statement's view of the shared global plan, with per-statement-type
/// cost attribution; v5 retired the statistics frames (opcodes `0x05` /
/// `0x85`): counters are read from `GET /metrics` on the same port.
pub const PROTOCOL_VERSION: u16 = 5;

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

/// One statement type's share of an operator's work (v4): how much of the
/// operator's busy time, and how many of its output rows, were attributed to
/// this statement type by the batch activation mix. The statement name
/// `"_idle"` covers cycles the operator ran without an activation of its own.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireAttributedCost {
    /// Statement type name (or `"_idle"`).
    pub statement: String,
    /// Activations of this statement type the operator processed.
    pub activations: u64,
    /// Output rows attributed to this statement type.
    pub rows: u64,
    /// Busy time attributed to this statement type, µs.
    pub busy_us: u64,
}

/// One operator of the explained statement's subtree (v4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireExplainNode {
    /// Operator id (index into the global plan).
    pub operator: u32,
    /// Operator name, e.g. `"Scan(ITEM)#0"`.
    pub name: String,
    /// Plan ids of the operator's inputs **within this subtree**.
    pub inputs: Vec<u32>,
    /// Names of every statement type sharing this operator (the sharing
    /// factor is this list's length).
    pub sharing: Vec<String>,
    /// Whether the explained statement activates this operator directly.
    pub activated: bool,
    /// Cycles the operator ran (EXPLAIN ANALYZE only, else 0).
    pub cycles: u64,
    /// Tuples the operator emitted (EXPLAIN ANALYZE only, else 0).
    pub tuples: u64,
    /// Total busy time, µs (EXPLAIN ANALYZE only, else 0).
    pub busy_us: u64,
    /// Per-statement-type cost attribution (EXPLAIN ANALYZE only).
    pub attributed: Vec<WireAttributedCost>,
}

/// The [`Frame::ExplainReply`] payload (v4): the explained statement's
/// operator subtree of the shared global plan, annotated with sharing sets
/// and — for EXPLAIN ANALYZE — live runtime statistics and per-statement
/// cost attribution, plus the server-rendered text form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireExplain {
    /// The matched statement type.
    pub statement: String,
    /// True for EXPLAIN ANALYZE (runtime stats populated).
    pub analyze: bool,
    /// Plan id of the statement's root operator; `u32::MAX` for updates
    /// (which have no operator subtree — they apply on the storage owner).
    pub root: u32,
    /// The subtree's operators, in plan-id order.
    pub nodes: Vec<WireExplainNode>,
    /// The server-rendered text plan (what `EXPLAIN` prints).
    pub text: String,
}

impl WireExplain {
    /// Looks up a subtree node by plan id.
    pub fn node(&self, operator: u32) -> Option<&WireExplainNode> {
        self.nodes.iter().find(|n| n.operator == operator)
    }

    /// Nodes shared by more than one statement type.
    pub fn shared_nodes(&self) -> Vec<&WireExplainNode> {
        self.nodes.iter().filter(|n| n.sharing.len() > 1).collect()
    }

    /// The sharing factor of one operator (0 when it is not in the subtree).
    pub fn sharing_factor(&self, operator: u32) -> usize {
        self.node(operator).map(|n| n.sharing.len()).unwrap_or(0)
    }

    /// Busy µs of `operator` attributed to `statement` (0 when absent).
    pub fn attributed_busy_us(&self, operator: u32, statement: &str) -> u64 {
        self.node(operator)
            .and_then(|n| n.attributed.iter().find(|a| a.statement == statement))
            .map(|a| a.busy_us)
            .unwrap_or(0)
    }
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
    /// EXPLAIN / EXPLAIN ANALYZE (v4): resolves `sql` — a registered
    /// statement name or ad-hoc SQL, with or without a leading
    /// `EXPLAIN [ANALYZE]` — against the compiled statement types and
    /// answers with the statement's annotated view of the global plan.
    Explain {
        /// Client-chosen id echoed on the response.
        request_id: u64,
        /// Request runtime statistics and cost attribution too.
        analyze: bool,
        /// Statement name or SQL text.
        sql: String,
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
    /// Answers [`Frame::Explain`] (v4).
    ExplainReply {
        /// Echoed request id.
        request_id: u64,
        /// The annotated statement subtree.
        explain: WireExplain,
    },
}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends the tagged encoding of one [`Value`].
pub fn encode_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(buf, 0),
        Value::Int(v) => {
            put_u8(buf, 1);
            put_u64(buf, *v as u64);
        }
        Value::Float(v) => {
            put_u8(buf, 2);
            put_u64(buf, v.to_bits());
        }
        Value::Text(s) => {
            put_u8(buf, 3);
            put_string(buf, s);
        }
        Value::Bool(b) => {
            put_u8(buf, 4);
            put_u8(buf, *b as u8);
        }
        Value::Date(v) => {
            put_u8(buf, 5);
            put_u64(buf, *v as u64);
        }
    }
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

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn malformed(msg: impl Into<String>) -> Error {
    Error::Io(format!("malformed frame: {}", msg.into()))
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(malformed("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8"))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.u64()? as i64),
            2 => Value::Float(f64::from_bits(self.u64()?)),
            3 => Value::text(self.string()?),
            4 => Value::Bool(self.u8()? != 0),
            5 => Value::Date(self.u64()? as i64),
            other => return Err(malformed(format!("bad value tag {other}"))),
        })
    }

    fn values(&mut self) -> Result<Vec<Value>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    fn done(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(malformed("trailing bytes"));
        }
        Ok(())
    }
}

fn put_values<'a>(buf: &mut Vec<u8>, values: impl ExactSizeIterator<Item = &'a Value>) {
    put_u32(buf, values.len() as u32);
    for v in values {
        encode_value(buf, v);
    }
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
            Frame::Explain { .. } => 0x08,
            Frame::GoodbyeOk => 0x86,
            Frame::Pong { .. } => 0x87,
            Frame::ExplainReply { .. } => 0x88,
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
            Frame::Explain {
                request_id,
                analyze,
                sql,
            } => {
                put_u64(&mut body, *request_id);
                put_u8(&mut body, *analyze as u8);
                put_string(&mut body, sql);
            }
            Frame::ExplainReply {
                request_id,
                explain,
            } => {
                put_u64(&mut body, *request_id);
                put_string(&mut body, &explain.statement);
                put_u8(&mut body, explain.analyze as u8);
                put_u32(&mut body, explain.root);
                put_u32(&mut body, explain.nodes.len() as u32);
                for node in &explain.nodes {
                    put_u32(&mut body, node.operator);
                    put_string(&mut body, &node.name);
                    put_u32(&mut body, node.inputs.len() as u32);
                    for input in &node.inputs {
                        put_u32(&mut body, *input);
                    }
                    put_u32(&mut body, node.sharing.len() as u32);
                    for statement in &node.sharing {
                        put_string(&mut body, statement);
                    }
                    put_u8(&mut body, node.activated as u8);
                    put_u64(&mut body, node.cycles);
                    put_u64(&mut body, node.tuples);
                    put_u64(&mut body, node.busy_us);
                    put_u32(&mut body, node.attributed.len() as u32);
                    for cost in &node.attributed {
                        put_string(&mut body, &cost.statement);
                        put_u64(&mut body, cost.activations);
                        put_u64(&mut body, cost.rows);
                        put_u64(&mut body, cost.busy_us);
                    }
                }
                put_string(&mut body, &explain.text);
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
        let mut c = Cursor { buf: body, pos: 0 };
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
            0x08 => Frame::Explain {
                request_id: c.u64()?,
                analyze: c.u8()? != 0,
                sql: c.string()?,
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
            0x88 => {
                let request_id = c.u64()?;
                let statement = c.string()?;
                let analyze = c.u8()? != 0;
                let root = c.u32()?;
                let n_nodes = c.u32()? as usize;
                let mut nodes = Vec::with_capacity(n_nodes.min(4096));
                for _ in 0..n_nodes {
                    let operator = c.u32()?;
                    let name = c.string()?;
                    let n_inputs = c.u32()? as usize;
                    let mut inputs = Vec::with_capacity(n_inputs.min(64));
                    for _ in 0..n_inputs {
                        inputs.push(c.u32()?);
                    }
                    let n_sharing = c.u32()? as usize;
                    let mut sharing = Vec::with_capacity(n_sharing.min(1024));
                    for _ in 0..n_sharing {
                        sharing.push(c.string()?);
                    }
                    let activated = c.u8()? != 0;
                    let cycles = c.u64()?;
                    let tuples = c.u64()?;
                    let busy_us = c.u64()?;
                    let n_attributed = c.u32()? as usize;
                    let mut attributed = Vec::with_capacity(n_attributed.min(1024));
                    for _ in 0..n_attributed {
                        attributed.push(WireAttributedCost {
                            statement: c.string()?,
                            activations: c.u64()?,
                            rows: c.u64()?,
                            busy_us: c.u64()?,
                        });
                    }
                    nodes.push(WireExplainNode {
                        operator,
                        name,
                        inputs,
                        sharing,
                        activated,
                        cycles,
                        tuples,
                        busy_us,
                        attributed,
                    });
                }
                let text = c.string()?;
                Frame::ExplainReply {
                    request_id,
                    explain: WireExplain {
                        statement,
                        analyze,
                        root,
                        nodes,
                        text,
                    },
                }
            }
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
        round_trip(Frame::Explain {
            request_id: 14,
            analyze: true,
            sql: "EXPLAIN ANALYZE SELECT * FROM ITEM WHERE I_ID = 3".into(),
        });
        round_trip(Frame::ExplainReply {
            request_id: 14,
            explain: WireExplain {
                statement: "getItem".into(),
                analyze: true,
                root: 2,
                nodes: vec![
                    WireExplainNode {
                        operator: 0,
                        name: "Scan(ITEM)#0".into(),
                        inputs: vec![],
                        sharing: vec!["getItem".into(), "allItems".into()],
                        activated: true,
                        cycles: 12,
                        tuples: 300,
                        busy_us: 4_500,
                        attributed: vec![
                            WireAttributedCost {
                                statement: "getItem".into(),
                                activations: 8,
                                rows: 8,
                                busy_us: 1_000,
                            },
                            WireAttributedCost {
                                statement: "_idle".into(),
                                activations: 0,
                                rows: 0,
                                busy_us: 200,
                            },
                        ],
                    },
                    WireExplainNode {
                        operator: 2,
                        name: "Sort#2".into(),
                        inputs: vec![0],
                        sharing: vec!["getItem".into()],
                        ..WireExplainNode::default()
                    },
                ],
                text: "statement getItem: query\n  Sort#2 [shared by 1: getItem]\n".into(),
            },
        });
    }

    #[test]
    fn explain_accessors_resolve_nodes_and_costs() {
        let explain = WireExplain {
            statement: "getItem".into(),
            analyze: true,
            root: 1,
            nodes: vec![
                WireExplainNode {
                    operator: 0,
                    name: "Scan(ITEM)#0".into(),
                    sharing: vec!["getItem".into(), "allItems".into()],
                    attributed: vec![WireAttributedCost {
                        statement: "allItems".into(),
                        activations: 2,
                        rows: 400,
                        busy_us: 900,
                    }],
                    ..WireExplainNode::default()
                },
                WireExplainNode {
                    operator: 1,
                    name: "Sort#1".into(),
                    inputs: vec![0],
                    sharing: vec!["getItem".into()],
                    ..WireExplainNode::default()
                },
            ],
            text: String::new(),
        };
        assert_eq!(explain.node(0).unwrap().name, "Scan(ITEM)#0");
        assert!(explain.node(9).is_none());
        assert_eq!(explain.sharing_factor(0), 2);
        assert_eq!(explain.sharing_factor(1), 1);
        assert_eq!(explain.sharing_factor(9), 0);
        let shared: Vec<u32> = explain.shared_nodes().iter().map(|n| n.operator).collect();
        assert_eq!(shared, vec![0]);
        assert_eq!(explain.attributed_busy_us(0, "allItems"), 900);
        assert_eq!(explain.attributed_busy_us(0, "getItem"), 0);
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
        // Unknown opcode — the retired statistics pair included, whatever
        // body follows it.
        assert!(Frame::decode(&[0x77]).is_err());
        assert!(Frame::decode(&[0x05, 10, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(Frame::decode(&[0x85]).is_err());
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
