//! # shareddb-client
//!
//! The blocking client library for the SharedDB network frontend
//! (`shareddb-server`): a [`Connection`] speaks the length-prefixed binary
//! wire protocol over TCP, supports **pipelining** (many submitted statements
//! in flight; responses arrive in submission order) and decodes results into
//! typed [`RemoteResultSet`]s.
//!
//! Pipelining is how a single client becomes a *good* SharedDB citizen: all
//! statements submitted while a batch runs land in the next
//! [`shareddb_core::QueryBatch`] and are answered by one shared execution.
//!
//! ```no_run
//! use shareddb_client::Connection;
//! use shareddb_common::Value;
//!
//! let mut conn = Connection::connect("127.0.0.1:4869").unwrap();
//! let get_item = conn.prepare("getItem").unwrap();
//! // Submit a pipeline of look-ups, then collect all results.
//! let tickets: Vec<_> = (0..100)
//!     .map(|i| conn.submit(&get_item, &[Value::Int(i)]).unwrap())
//!     .collect();
//! for ticket in tickets {
//!     let outcome = conn.wait(ticket).unwrap();
//!     println!("{} rows", outcome.rows().len());
//! }
//! ```

use shareddb_common::{DataType, Error, Result, Value};
use shareddb_server::protocol::{
    chunk_flags, read_frame, wire_to_error, write_frame, Frame, PROTOCOL_VERSION,
};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Metadata of a prepared statement on the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    /// Server-side statement id.
    pub id: u32,
    /// Statement name.
    pub name: String,
    /// Number of positional parameters.
    pub param_count: usize,
    /// True for INSERT/UPDATE/DELETE.
    pub is_update: bool,
}

/// A decoded query result.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteResultSet {
    /// Column names and types.
    pub columns: Vec<(String, DataType)>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl RemoteResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Outcome of one remote statement execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A query with its decoded result set.
    Rows(RemoteResultSet),
    /// An update acknowledgement.
    Updated {
        /// Number of rows inserted / modified / deleted.
        rows_affected: u64,
    },
}

impl Outcome {
    /// The rows of a query outcome (empty for updates).
    pub fn rows(&self) -> &[Vec<Value>] {
        match self {
            Outcome::Rows(rs) => &rs.rows,
            Outcome::Updated { .. } => &[],
        }
    }

    /// Rows affected by an update (0 for queries).
    pub fn rows_affected(&self) -> u64 {
        match self {
            Outcome::Rows(_) => 0,
            Outcome::Updated { rows_affected } => *rows_affected,
        }
    }
}

/// Handle for one pipelined submission; redeem with [`Connection::wait`] in
/// submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket(u64);

/// A blocking connection to a SharedDB server.
///
/// Not thread-safe by design (one connection = one session pipeline); open
/// one connection per client thread, or guard a shared one externally.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_request_id: u64,
    /// Request ids awaiting responses, in submission order.
    pending: VecDeque<u64>,
    /// Set when the stream desynchronised (e.g. a deadline expired mid-read);
    /// the connection refuses further use.
    poisoned: bool,
}

impl Connection {
    /// Connects and performs the Hello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Connection> {
        Connection::connect_named(addr, "shareddb-client")
    }

    /// Connects with an explicit client name (shown in server diagnostics).
    pub fn connect_named(addr: impl ToSocketAddrs, client_name: &str) -> Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut conn = Connection {
            reader,
            writer,
            next_request_id: 1,
            pending: VecDeque::new(),
            poisoned: false,
        };
        conn.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            client_name: client_name.into(),
        })?;
        match conn.read()? {
            Frame::HelloOk { .. } => Ok(conn),
            Frame::Error {
                code,
                retryable,
                message,
                ..
            } => Err(wire_to_error(code, retryable, &message)),
            other => Err(Error::Io(format!("unexpected greeting: {other:?}"))),
        }
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(Error::Io(
                "connection is poisoned (a previous deadline expired mid-response)".into(),
            ));
        }
        Ok(())
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one frame. Any transport failure (closed socket, timeout,
    /// malformed frame) leaves the stream state unknown and poisons the
    /// connection; a well-formed [`Frame::Error`] does not.
    fn read(&mut self) -> Result<Frame> {
        match read_frame(&mut self.reader) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => {
                self.poisoned = true;
                Err(Error::Io("server closed the connection".into()))
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn fresh_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    fn check_pipeline_empty(&self, operation: &str) -> Result<()> {
        if !self.pending.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "drain pipelined submissions before {operation} (responses arrive in \
                 submission order; interleaving would desynchronise the connection)"
            )));
        }
        Ok(())
    }

    /// Looks up a registered statement type by name.
    pub fn prepare(&mut self, name: &str) -> Result<Prepared> {
        self.check_poisoned()?;
        self.check_pipeline_empty("prepare")?;
        let request_id = self.fresh_request_id();
        self.send(&Frame::Prepare {
            request_id,
            name: name.into(),
        })?;
        match self.read()? {
            Frame::Prepared {
                statement_id,
                param_count,
                is_update,
                ..
            } => Ok(Prepared {
                id: statement_id,
                name: name.to_string(),
                param_count: param_count as usize,
                is_update,
            }),
            Frame::Error {
                code,
                retryable,
                message,
                ..
            } => Err(wire_to_error(code, retryable, &message)),
            other => Err(Error::Io(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Submits a prepared-statement execution without waiting (pipelining).
    pub fn submit(&mut self, statement: &Prepared, params: &[Value]) -> Result<Ticket> {
        self.check_poisoned()?;
        let request_id = self.fresh_request_id();
        self.send(&Frame::ExecutePrepared {
            request_id,
            statement_id: statement.id,
            params: params.to_vec(),
        })?;
        self.pending.push_back(request_id);
        Ok(Ticket(request_id))
    }

    /// Submits an ad-hoc SQL statement without waiting (pipelining). The
    /// server matches it against the compiled statement types.
    pub fn submit_query(&mut self, sql: &str) -> Result<Ticket> {
        self.check_poisoned()?;
        let request_id = self.fresh_request_id();
        self.send(&Frame::Query {
            request_id,
            sql: sql.into(),
        })?;
        self.pending.push_back(request_id);
        Ok(Ticket(request_id))
    }

    /// Waits for the result of a pipelined submission. Responses arrive in
    /// submission order, so tickets must be redeemed in submission order.
    pub fn wait(&mut self, ticket: Ticket) -> Result<Outcome> {
        self.check_poisoned()?;
        match self.pending.front() {
            Some(&next) if next == ticket.0 => {}
            Some(&next) => {
                return Err(Error::InvalidParameter(format!(
                    "tickets must be redeemed in submission order (next is {next}, got {})",
                    ticket.0
                )))
            }
            None => {
                return Err(Error::InvalidParameter(
                    "no submission is pending for this ticket".into(),
                ))
            }
        }
        let result = self.read_outcome(ticket.0);
        // Transport failures and desyncs set the poison flag inside the read
        // path; a server-reported statement error (even an engine-side I/O
        // error) leaves the stream in sync and the pipeline usable.
        if !self.poisoned {
            self.pending.pop_front();
        }
        result
    }

    fn read_outcome(&mut self, request_id: u64) -> Result<Outcome> {
        let mut columns: Vec<(String, DataType)> = Vec::new();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        loop {
            match self.read()? {
                Frame::ResultChunk {
                    request_id: rid,
                    flags,
                    rows_affected,
                    schema,
                    rows: chunk_rows,
                } => {
                    if rid != request_id {
                        self.poisoned = true;
                        return Err(Error::Io(format!(
                            "response for request {rid} while waiting for {request_id}"
                        )));
                    }
                    if flags & chunk_flags::UPDATE != 0 {
                        return Ok(Outcome::Updated { rows_affected });
                    }
                    if flags & chunk_flags::FIRST != 0 {
                        columns = schema;
                    }
                    rows.extend(chunk_rows);
                    if flags & chunk_flags::LAST != 0 {
                        return Ok(Outcome::Rows(RemoteResultSet { columns, rows }));
                    }
                }
                Frame::Error {
                    request_id: rid,
                    code,
                    retryable,
                    message,
                } => {
                    if rid != request_id {
                        self.poisoned = true;
                        return Err(Error::Io(format!(
                            "error for request {rid} while waiting for {request_id}"
                        )));
                    }
                    return Err(wire_to_error(code, retryable, &message));
                }
                other => {
                    self.poisoned = true;
                    return Err(Error::Io(format!("unexpected reply: {other:?}")));
                }
            }
        }
    }

    /// Submits and waits in one call.
    pub fn execute(&mut self, statement: &Prepared, params: &[Value]) -> Result<Outcome> {
        let ticket = self.submit(statement, params)?;
        self.wait(ticket)
    }

    /// Submits and waits, giving up after `deadline`. A timed-out connection
    /// is poisoned (the response may still be in flight) and cannot be
    /// reused.
    pub fn execute_with_deadline(
        &mut self,
        statement: &Prepared,
        params: &[Value],
        deadline: Duration,
    ) -> Result<Outcome> {
        let started = std::time::Instant::now();
        let ticket = self.submit(statement, params)?;
        self.reader
            .get_ref()
            .set_read_timeout(Some(deadline.max(Duration::from_millis(1))))?;
        let result = self.wait(ticket);
        let _ = self.reader.get_ref().set_read_timeout(None);
        match result {
            // The socket timeout is per read(2) call, so a slow multi-chunk
            // response can complete past the deadline; that is still a
            // deadline miss (the stream is in sync, no poisoning needed).
            Ok(_) if started.elapsed() > deadline => Err(Error::DeadlineExceeded),
            // Only an I/O failure *at* the deadline is a timeout; earlier
            // ones are real connection failures and must stay visible.
            Err(Error::Io(_)) if started.elapsed() >= deadline => {
                self.poisoned = true;
                Err(Error::DeadlineExceeded)
            }
            other => other,
        }
    }

    /// Executes an ad-hoc SQL statement.
    pub fn query(&mut self, sql: &str) -> Result<Outcome> {
        let ticket = self.submit_query(sql)?;
        self.wait(ticket)
    }

    /// Keepalive no-op: round-trips a [`Frame::Ping`] without touching the
    /// engine. Useful for long-lived idle connections (liveness probing) and
    /// as the cheapest way to exercise the server's incremental frame
    /// decoder. Requires a drained pipeline, like [`Connection::prepare`].
    pub fn ping(&mut self) -> Result<()> {
        self.check_poisoned()?;
        self.check_pipeline_empty("ping")?;
        let request_id = self.fresh_request_id();
        self.send(&Frame::Ping { request_id })?;
        match self.read()? {
            Frame::Pong { request_id: rid } if rid == request_id => Ok(()),
            Frame::Error {
                code,
                retryable,
                message,
                ..
            } => Err(wire_to_error(code, retryable, &message)),
            other => Err(Error::Io(format!("unexpected ping reply: {other:?}"))),
        }
    }

    /// Orderly connection termination. Pending pipelined responses are
    /// drained (and discarded) first so the goodbye handshake lines up.
    pub fn close(mut self) -> Result<()> {
        if self.poisoned {
            return Ok(());
        }
        while let Some(&next) = self.pending.front() {
            // Statement-level errors are fine during close; a desynchronised
            // stream (poison) means an orderly goodbye is no longer possible.
            let _ = self.read_outcome(next);
            self.pending.pop_front();
            if self.poisoned {
                return Ok(());
            }
        }
        self.send(&Frame::Goodbye)?;
        match self.read()? {
            Frame::GoodbyeOk => Ok(()),
            other => Err(Error::Io(format!("unexpected goodbye reply: {other:?}"))),
        }
    }
}
