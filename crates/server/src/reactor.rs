//! The single-threaded readiness reactor behind [`crate::server::Server`].
//!
//! One thread owns the listener, every client socket and all protocol state:
//!
//! ```text
//!             ┌───────────────────────── reactor thread ─────────────────────────┐
//!   accept ──▶│ nonblocking sockets ──▶ FrameDecoder ──▶ admission ──▶ engine    │
//!             │        ▲                (partial-frame      (atomic     submit   │
//!             │        │                 buffers)            bound)        │     │
//!             │     epoll                                                  ▼     │
//!             │        ▲                per-conn reply queue ◀── completions     │
//!             │        │                (submission order)       (one eventfd)   │
//!             │   write queues ◀────────────┘                                    │
//!             └────────────────────────────────────────────────────────────────--┘
//! ```
//!
//! Sockets are nonblocking; readiness comes from one level-triggered `epoll`
//! set ([`Epoll`], a tiny `extern "C"` binding — no crates.io dependency,
//! following the `shims/` pattern of linking the platform directly), so the
//! crate is Linux-only, as is the `TCP_INFO` read a drain waits on. Nothing in
//! the reactor blocks on I/O or on the engine:
//!
//! * reads land in a per-connection [`FrameDecoder`] that carries
//!   partial-frame state, so a client that stalls mid-frame costs a buffer,
//!   not a parked thread;
//! * submitted statements park as [`Reply::Pending`] entries in the
//!   connection's reply queue, each tagged with its place there; outcomes
//!   come back through the reactor's one [`Completions`] queue, whose push
//!   wakes the poll (an eventfd write, not a timed poll) only when it
//!   found the queue empty — one wake carries whatever has gathered by the
//!   time the reactor looks — and are filed by tag, so replies leave in
//!   submission order whatever order the engine answered them in;
//! * responses drain through a per-connection write queue flushed when the
//!   socket is writable; a connection whose write queue passes the high-water
//!   mark stops being polled for readability (socket-level backpressure)
//!   until the client drains it.
//!
//! An idle server makes **zero** wakeups: with no timers armed the poll call
//! sleeps indefinitely until a socket, the listener, or a waker fires. Timed
//! wakeups exist only while a client is mid-frame (stall timeout) or a drain
//! deadline is armed.

use crate::protocol::{
    self, chunk_flags, encode_result_chunk, error_to_wire, Frame, FrameDecoder, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use crate::server::Shared;
use shareddb_common::{DataType, Error, Value};
use shareddb_core::completions::Completion;
use shareddb_core::render_explain_text;
use shareddb_core::{Completions, QueryOutcome, SubmitOptions};
use shareddb_sql::compile::{bind_adhoc, canonicalize, parse_explain};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll token of the TCP listener.
const LISTENER_TOKEN: u64 = 0;
/// Poll token of the wakeup eventfd.
const WAKE_TOKEN: u64 = 1;
/// First token handed to a client connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Stop reading from a connection whose un-flushed response bytes exceed
/// this; reading resumes once the client drains its socket.
const WRITE_HIGH_WATER: usize = 1 << 20;

/// A client that started a frame but stalls for this long is dropped — it
/// would otherwise pin its connection state (and delay shutdown) forever.
pub(crate) const STALLED_FRAME_TIMEOUT: Duration = Duration::from_secs(30);

/// HTTP requests (the `/metrics` scrape path) larger than this are rejected
/// with `400 Bad Request` — scrape requests are a handful of header lines.
const MAX_HTTP_REQUEST: usize = 8 * 1024;

/// Rows per [`Frame::ResultChunk`] of a statement's result.
const CHUNK_ROWS: usize = 512;

// ---------------------------------------------------------------------------
// The poller: epoll through a direct syscall binding, no external crates
// ---------------------------------------------------------------------------

/// What a connection wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Interest {
    readable: bool,
    writable: bool,
}

/// One readiness event.
#[derive(Debug, Clone, Copy)]
struct Event {
    token: u64,
    readable: bool,
    writable: bool,
    /// Peer hangup / socket error: the connection is beyond saving.
    closed: bool,
}

mod sys {
    //! Minimal libc surface for epoll + eventfd (and the TCP state a drain
    //! waits on). The workspace has no
    //! crates.io access, so — like the `shims/` crates — we bind the platform
    //! directly: these symbols live in the libc every Rust binary already
    //! links.

    // The kernel ABI packs epoll_event on x86-64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
    }

    pub const IPPROTO_TCP: i32 = 6;
    pub const TCP_INFO: i32 = 11;
    pub const TCP_FIN_WAIT2: u8 = 5;
    pub const TCP_TIME_WAIT: u8 = 6;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;
}

/// An owned eventfd shared between the poller and the wakers it hands out;
/// the fd stays open until the last waker is dropped, so a late wake can
/// never hit a recycled descriptor.
struct EventFd(i32);

impl EventFd {
    fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        unsafe {
            let _ = sys::write(self.0, one.as_ptr(), one.len());
        }
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe {
            let _ = sys::read(self.0, buf.as_mut_ptr(), buf.len());
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.0);
        }
    }
}

/// The reactor's readiness source: one level-triggered epoll set holding
/// the listener, every client socket and an eventfd other threads wake it
/// through.
pub(crate) struct Epoll {
    epfd: i32,
    wake: Arc<EventFd>,
    events: Vec<sys::EpollEvent>,
}

impl Epoll {
    pub(crate) fn new() -> std::io::Result<Epoll> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let wakefd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if wakefd < 0 {
            let err = std::io::Error::last_os_error();
            unsafe { sys::close(epfd) };
            return Err(err);
        }
        let poller = Epoll {
            epfd,
            wake: Arc::new(EventFd(wakefd)),
            events: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        };
        poller.ctl(sys::EPOLL_CTL_ADD, wakefd, WAKE_TOKEN, sys::EPOLLIN)?;
        Ok(poller)
    }

    fn ctl(&self, op: i32, fd: i32, token: u64, events: u32) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.readable {
            bits |= sys::EPOLLIN;
        }
        if interest.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    pub(crate) fn register_listener(&self, listener: &TcpListener) -> std::io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            LISTENER_TOKEN,
            sys::EPOLLIN,
        )
    }

    fn deregister_listener(&self, listener: &TcpListener) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, listener.as_raw_fd(), 0, 0);
    }

    fn register_conn(
        &self,
        stream: &TcpStream,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            stream.as_raw_fd(),
            token,
            Self::interest_bits(interest),
        )
    }

    fn update_conn(&self, stream: &TcpStream, token: u64, interest: Interest) {
        let _ = self.ctl(
            sys::EPOLL_CTL_MOD,
            stream.as_raw_fd(),
            token,
            Self::interest_bits(interest),
        );
    }

    fn deregister_conn(&self, stream: &TcpStream, token: u64) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, stream.as_raw_fd(), token, 0);
    }

    /// A handle other threads use to interrupt a sleeping [`Epoll::poll`].
    pub(crate) fn waker(&self) -> Arc<dyn Fn() + Send + Sync> {
        let wake = Arc::clone(&self.wake);
        Arc::new(move || wake.wake())
    }

    /// Waits up to `timeout` (forever on `None`) and appends what became
    /// ready; a wake only ends the wait.
    fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) {
        let timeout_ms: i32 = match timeout {
            // Round up so a 100µs deadline doesn't busy-spin at timeout 0.
            Some(t) => t.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
            None => -1,
        };
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.events.as_mut_ptr(),
                self.events.len() as i32,
                timeout_ms,
            )
        };
        if n <= 0 {
            return; // timeout or EINTR
        }
        for ev in &self.events[..n as usize] {
            let token = { ev.data };
            let bits = { ev.events };
            if token == WAKE_TOKEN {
                self.wake.drain();
                continue;
            }
            events.push(Event {
                token,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
        }
    }
}

// ---------------------------------------------------------------------------
// Completion tags: engine → reactor
// ---------------------------------------------------------------------------

/// A statement's completion tag names the reply slot its outcome belongs in:
/// the connection's token above, the slot's sequence number — its position
/// in the connection's reply stream, modulo 2^24 — in the low bits. Tokens
/// are never reused, so an outcome whose connection has gone names nothing.
const SEQ_BITS: u32 = 24;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
/// A connection's reply queue stays far shorter than the sequence space
/// (each in-flight statement is one slot, with at most one coalesced ready
/// slot between two), so a sequence number names one live slot.
const MAX_INFLIGHT: usize = 1 << (SEQ_BITS - 2);

// ---------------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------------

/// One entry of a connection's ordered reply queue.
enum Reply {
    /// Already-encoded frames, ready to move to the write queue.
    Ready(Vec<u8>),
    /// A submitted statement. Its outcome is filed here when it comes off
    /// the completion queue and pumped out when every reply before it has
    /// been.
    Pending {
        request_id: u64,
        /// Statement registry index, for the Flush-phase histogram.
        statement: usize,
        outcome: Option<shareddb_common::Result<QueryOutcome>>,
    },
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Replies in submission order; `Pending` entries park here until the
    /// engine completes them.
    replies: VecDeque<Reply>,
    /// Sequence number of `replies.front()`: the replies popped so far.
    front_seq: u64,
    /// Number of `Reply::Pending` entries (the per-session in-flight count).
    inflight: usize,
    /// Encoded response bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    greeted: bool,
    /// The connection spoke HTTP instead of the binary protocol (a metrics
    /// scrape): bytes are parsed as one HTTP request, answered, then closed.
    http: bool,
    /// Cumulative bytes flushed to the socket (Flush-phase bookkeeping).
    flushed: u64,
    /// Statement replies in the write queue, not yet fully flushed: the
    /// cumulative-offset watermark at which each is on the wire, when its
    /// outcome became ready, and its statement index.
    pending_flush: VecDeque<(u64, Instant, usize)>,
    /// No more frames will be read (EOF, Goodbye, violation, or drain).
    read_closed: bool,
    /// When the first byte of a partial frame arrived (stall timeout).
    frame_started: Option<Instant>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Unrecoverable socket or protocol failure: drop without flushing.
    dead: bool,
    /// A drain shut the write side after the last owed reply: what the
    /// client still sends is read and dropped until it hangs up or has
    /// acknowledged the FIN (`Reactor::close`).
    half_closed: bool,
}

impl Conn {
    /// Frames are still read from the connection.
    fn reading(&self) -> bool {
        !self.read_closed && !self.dead
    }

    fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// The write buffer, to append a reply to: what the socket has taken
    /// already is dropped from its front first, when that is free (nothing
    /// left behind it) or due (64 KiB of it).
    fn out_for_append(&mut self) -> &mut Vec<u8> {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos >= 64 * 1024 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        &mut self.out
    }

    /// The interest this connection wants given its current state.
    fn wanted_interest(&self, draining: bool) -> Interest {
        Interest {
            readable: self.half_closed
                || (!self.read_closed && !draining && self.out_len() < WRITE_HIGH_WATER),
            writable: self.out_len() > 0,
        }
    }

    /// True once everything owed to the client has been flushed and the
    /// connection has no reason to stay open.
    fn finished(&self, draining: bool) -> bool {
        if self.half_closed {
            return self.dead || fin_acked(&self.stream);
        }
        self.dead
            || (self.replies.is_empty() && self.out_len() == 0 && (self.read_closed || draining))
    }
}

/// The peer acknowledged every byte written to `stream` and the FIN behind
/// them (`TCP_INFO` state `FIN_WAIT2`, or `TIME_WAIT` once its own FIN came).
fn fin_acked(stream: &TcpStream) -> bool {
    // `tcpi_state` is the first byte of `struct tcp_info`.
    let mut info = [0u8; 8];
    let mut len = info.len() as u32;
    // SAFETY: the descriptor is the open socket `stream` owns; the kernel
    // writes at most `len` bytes into `info` and stores the count in `len`,
    // both of which live for the call.
    let rc = unsafe {
        sys::getsockopt(
            stream.as_raw_fd(),
            sys::IPPROTO_TCP,
            sys::TCP_INFO,
            info.as_mut_ptr(),
            &mut len,
        )
    };
    rc == 0 && matches!(info[0], sys::TCP_FIN_WAIT2 | sys::TCP_TIME_WAIT)
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    listener: TcpListener,
    poller: Epoll,
    conns: HashMap<u64, Conn>,
    /// Where the engine puts the outcomes of this reactor's statements.
    completions: Arc<Completions>,
    next_token: u64,
    /// Set when a drain begins: the hard deadline after which surviving
    /// connections are force-closed.
    drain_deadline: Option<Instant>,
    /// Connections currently holding a partial frame. Gates the stall-timer
    /// scans so the steady state never walks the whole connection map.
    mid_frame_conns: usize,
    /// Reused buffers.
    events: Vec<Event>,
    completed: Vec<Completion>,
    touched: Vec<u64>,
    scratch: Box<[u8]>,
}

impl Reactor {
    /// A reactor over `listener`, which `poller` already watches.
    pub(crate) fn new(shared: Arc<Shared>, listener: TcpListener, poller: Epoll) -> Reactor {
        let completions = Arc::new(Completions::new(Some(poller.waker())));
        Reactor {
            shared,
            listener,
            poller,
            conns: HashMap::new(),
            completions,
            next_token: FIRST_CONN_TOKEN,
            drain_deadline: None,
            mid_frame_conns: 0,
            events: Vec::new(),
            completed: Vec::new(),
            touched: Vec::new(),
            scratch: vec![0u8; 64 * 1024].into_boxed_slice(),
        }
    }

    pub(crate) fn run(mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) && self.drain_deadline.is_none() {
                self.begin_drain();
            }

            // Engine completions since the last sweep: each outcome goes to
            // the slot its tag names, then every connection that got one is
            // pumped once.
            self.completions.take(&mut self.completed);
            for (tag, outcome) in self.completed.drain(..) {
                let token = tag >> SEQ_BITS;
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                let slot = (tag.wrapping_sub(conn.front_seq) & SEQ_MASK) as usize;
                if let Some(Reply::Pending { outcome: place, .. }) = conn.replies.get_mut(slot) {
                    *place = Some(outcome);
                    self.touched.push(token);
                }
            }
            let mut touched = std::mem::take(&mut self.touched);
            touched.sort_unstable();
            touched.dedup();
            for token in touched.drain(..) {
                self.pump_and_flush(token);
                self.maybe_reap(token);
            }
            self.touched = touched;

            let now = Instant::now();
            // Stall timers only exist while some client is mid-frame; the
            // counter keeps the steady state free of full-map scans.
            if self.mid_frame_conns > 0 {
                self.expire_stalled(now);
            }
            if self.drain_deadline.is_some() {
                // Drain mode is the one regime where a full sweep is right:
                // every connection is racing the same deadline.
                self.reap_finished();
                if self.conns.is_empty() {
                    break;
                }
                if now >= self.drain_deadline.unwrap() {
                    // Force-close whatever would not drain (e.g. a client
                    // that stopped reading its responses).
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.drop_conn(token);
                    }
                    break;
                }
            }

            let timeout = self.next_timeout(now);
            self.events.clear();
            let mut events = std::mem::take(&mut self.events);
            self.poller.poll(&mut events, timeout);
            for event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    token => {
                        if event.readable || event.closed {
                            self.conn_readable(token);
                        }
                        if event.writable || event.closed {
                            self.pump_and_flush(token);
                        }
                        self.maybe_reap(token);
                    }
                }
            }
            self.events = events;
        }
        self.poller.deregister_listener(&self.listener);
        self.shared.notify_drained();
    }

    /// Stop accepting and reading; deliver what is owed, then close.
    fn begin_drain(&mut self) {
        let config_timeout = self.shared.config.drain_timeout;
        // The server-side drain waits `drain_timeout`, then shuts the engine
        // down, which completes every in-flight statement (final batch or
        // shutdown error). The reactor's own deadline sits past that so those
        // final results still reach clients that are reading.
        self.drain_deadline = Some(Instant::now() + config_timeout * 2 + Duration::from_secs(2));
        self.poller.deregister_listener(&self.listener);
        for conn in self.conns.values_mut() {
            // A partially received frame can never complete (we stop
            // reading): discard it rather than waiting out its stall timer.
            conn.decoder.clear();
            conn.frame_started = None;
            conn.read_closed = true;
        }
        self.mid_frame_conns = 0;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.update_interest(token);
        }
    }

    /// Earliest pending timer: stalled-frame timeouts and the drain deadline.
    /// With no mid-frame client and no drain armed there is no timer at all —
    /// the poll sleeps until a socket or a waker fires.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        // No readiness event reports a FIN acknowledged: a drain with a
        // half-closed connection looks again shortly.
        if self.drain_deadline.is_some() && self.conns.values().any(|c| c.half_closed) {
            return Some(Duration::from_millis(1));
        }
        let mut next: Option<Instant> = self.drain_deadline;
        if self.mid_frame_conns > 0 {
            for conn in self.conns.values() {
                if let Some(started) = conn.frame_started {
                    let deadline = started + STALLED_FRAME_TIMEOUT;
                    next = Some(match next {
                        Some(n) => n.min(deadline),
                        None => deadline,
                    });
                }
            }
        }
        next.map(|deadline| deadline.saturating_duration_since(now))
    }

    fn expire_stalled(&mut self, now: Instant) {
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.frame_started
                    .is_some_and(|started| now.duration_since(started) > STALLED_FRAME_TIMEOUT)
            })
            .map(|(&t, _)| t)
            .collect();
        for token in stalled {
            self.drop_conn(token);
        }
    }

    fn reap_finished(&mut self) {
        let draining = self.drain_deadline.is_some();
        let finished: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.finished(draining))
            .map(|(&t, _)| t)
            .collect();
        for token in finished {
            self.close(token);
        }
        if draining && self.conns.is_empty() {
            self.shared.notify_drained();
        }
    }

    /// Reaps one connection if it has nothing left to deliver. Steady-state
    /// reaping is per-token (after the event or completion that touched the
    /// connection); only drain mode sweeps the whole map.
    fn maybe_reap(&mut self, token: u64) {
        let draining = self.drain_deadline.is_some();
        if self.conns.get(&token).is_some_and(|c| c.finished(draining)) {
            self.close(token);
        }
    }

    /// Closes a finished connection. In a drain its client may still be
    /// sending, and a close that finds unread bytes — or that such bytes
    /// reach afterwards — resets the connection, which throws away whatever
    /// of the replies the kernel has not sent yet. So a drain shuts the
    /// write side first and keeps the connection half-closed, reading and
    /// dropping what arrives, until the client's EOF, its acknowledgement of
    /// the FIN (every reply is in its receive buffer then, where a reset
    /// cannot reach it; an idle client sends it at once) or the deadline.
    fn close(&mut self, token: u64) {
        let draining = self.drain_deadline.is_some();
        if let Some(conn) = self
            .conns
            .get_mut(&token)
            .filter(|c| draining && !c.dead && !c.half_closed)
        {
            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            conn.half_closed = true;
            self.update_interest(token);
            return;
        }
        self.drop_conn(token);
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.frame_started.is_some() {
                self.mid_frame_conns -= 1;
            }
            self.poller.deregister_conn(&conn.stream, token);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.shared.sessions_active.fetch_sub(1, Ordering::AcqRel);
        }
    }

    // -- accept ------------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.drain_deadline.is_some() {
                        continue; // accepted only to close: we are draining
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = Interest {
                        readable: true,
                        writable: false,
                    };
                    if self.poller.register_conn(&stream, token, interest).is_err() {
                        continue;
                    }
                    self.shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
                    self.shared.sessions_active.fetch_add(1, Ordering::AcqRel);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            replies: VecDeque::new(),
                            front_seq: 0,
                            inflight: 0,
                            out: Vec::new(),
                            out_pos: 0,
                            greeted: false,
                            http: false,
                            flushed: 0,
                            pending_flush: VecDeque::new(),
                            read_closed: false,
                            frame_started: None,
                            interest,
                            dead: false,
                            half_closed: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion): yield
                    // briefly so a level-triggered listener doesn't spin.
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }

    // -- read path ---------------------------------------------------------

    fn conn_readable(&mut self, token: u64) {
        use std::io::ErrorKind::{Interrupted, WouldBlock};
        // A half-closed connection's bytes are dropped; its EOF closes it.
        if let Some(conn) = self.conns.get_mut(&token).filter(|c| c.half_closed) {
            match conn.stream.read(&mut self.scratch) {
                Ok(n) if n > 0 => {}
                Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
                _ => conn.dead = true,
            }
            return;
        }
        // One read per readiness report. A read that did not fill the buffer
        // drained the socket — asking again would only buy a `WouldBlock` —
        // and what a full buffer left behind is reported again (epoll is
        // level-triggered) once the other connections had their turn and
        // unless the write queue passed its high-water mark meanwhile.
        if let Some(conn) = self.conns.get_mut(&token).filter(|c| c.reading()) {
            match conn.stream.read(&mut self.scratch) {
                // Clean EOF (possibly a half-close: the client may still be
                // reading its pending responses).
                Ok(0) => conn.read_closed = true,
                Ok(n) => {
                    conn.decoder.push(&self.scratch[..n]);
                    // A fresh connection that opens with an ASCII HTTP method
                    // is a metrics scrape, not a protocol peer: those bytes
                    // would otherwise parse as an absurd LE length prefix.
                    if !conn.greeted && !conn.http && looks_like_http(conn.decoder.peek()) {
                        conn.http = true;
                    }
                    if conn.http {
                        self.process_http(token);
                    } else {
                        self.process_frames(token);
                    }
                }
                Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
                Err(_) => conn.dead = true,
            }
        }
        let mid_frame_delta = match self.conns.get_mut(&token) {
            Some(conn) => {
                // Arm or clear the stall timer from what is left in the
                // decoder.
                let was_mid = conn.frame_started.is_some();
                conn.frame_started = if conn.decoder.mid_frame() {
                    Some(conn.frame_started.unwrap_or_else(Instant::now))
                } else {
                    None
                };
                conn.frame_started.is_some() as isize - was_mid as isize
            }
            None => 0,
        };
        self.mid_frame_conns = self
            .mid_frame_conns
            .checked_add_signed(mid_frame_delta)
            .unwrap_or(0);
        self.pump_and_flush(token);
    }

    /// Decodes and handles every complete frame in the connection's buffer,
    /// until it runs out or the connection stopped accepting frames.
    fn process_frames(&mut self, token: u64) {
        while let Some(conn) = self.conns.get_mut(&token).filter(|c| c.reading()) {
            match conn.decoder.poll_frame() {
                Ok(Some(frame)) => self.handle_frame(token, frame),
                Ok(None) => return,
                Err(_) => {
                    // The stream can no longer be framed: flush what was
                    // already owed, then close (mirrors the old session
                    // behaviour of dropping on a malformed frame).
                    conn.read_closed = true;
                    conn.decoder.clear();
                }
            }
        }
    }

    // -- HTTP metrics endpoint ---------------------------------------------

    /// Handles a connection in HTTP mode: waits for one complete request
    /// head, answers it, and closes.
    fn process_http(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token).filter(|c| c.reading()) else {
            return;
        };
        let head_len = match find_header_end(conn.decoder.peek()) {
            Some(len) => len,
            None => {
                if conn.decoder.buffered() > MAX_HTTP_REQUEST {
                    self.shared.http_errors.fetch_add(1, Ordering::Relaxed);
                    let response = http_response(400, "Bad Request", "request too large\n");
                    self.finish_http(token, response);
                }
                return; // head still arriving, or refused
            }
        };
        let head = conn.decoder.peek()[..head_len].to_vec();
        let request_line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
        let response = match parse_request_line(request_line) {
            Some((method, path)) if method == "GET" || method == "HEAD" => {
                if path == "/metrics" {
                    self.shared.scrapes.fetch_add(1, Ordering::Relaxed);
                    let body = self.shared.metrics_text();
                    let mut r = http_response(200, "OK", &body);
                    if method == "HEAD" {
                        r.truncate(r.len() - body.len());
                    }
                    r
                } else {
                    self.shared.http_errors.fetch_add(1, Ordering::Relaxed);
                    http_response(404, "Not Found", "only /metrics is served here\n")
                }
            }
            Some(_) => {
                self.shared.http_errors.fetch_add(1, Ordering::Relaxed);
                http_response(405, "Method Not Allowed", "use GET /metrics\n")
            }
            None => {
                self.shared.http_errors.fetch_add(1, Ordering::Relaxed);
                http_response(400, "Bad Request", "malformed request line\n")
            }
        };
        self.finish_http(token, response)
    }

    /// Queues the HTTP response and half-closes: the reply flushes through
    /// the normal write path, then the connection is reaped.
    fn finish_http(&mut self, token: u64, response: Vec<u8>) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.decoder.clear();
            conn.out_for_append().extend_from_slice(&response);
            conn.read_closed = true;
        }
    }

    // -- frame handling (the protocol state machine) -----------------------

    /// Handles one decoded frame. A goodbye or a violation closes the
    /// connection's read side (`read_closed`, `dead`).
    fn handle_frame(&mut self, token: u64, frame: Frame) {
        let greeted = match self.conns.get(&token) {
            Some(c) => c.greeted,
            None => return,
        };
        // Hello must be the first frame: anything else before a successful
        // handshake is a protocol violation and drops the connection.
        if !greeted && !matches!(frame, Frame::Hello { .. }) {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.dead = true;
            }
            return;
        }
        match frame {
            Frame::Hello { version, .. } => {
                if version != PROTOCOL_VERSION {
                    // A version mismatch ends the session: continuing to
                    // decode a foreign version's frames with v1 rules would
                    // misparse them.
                    self.enqueue_reply(
                        token,
                        &Frame::Error {
                            request_id: 0,
                            code: protocol::error_codes::UNSUPPORTED,
                            retryable: false,
                            message: format!(
                                "protocol version {version} is not supported (server speaks {PROTOCOL_VERSION})"
                            ),
                        },
                    );
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.read_closed = true;
                    }
                    return;
                }
                let reply = Frame::HelloOk {
                    version: PROTOCOL_VERSION,
                    server_name: "shareddb".into(),
                    statement_count: self.shared.registry.len() as u32,
                };
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.greeted = true;
                }
                self.enqueue_reply(token, &reply);
            }
            Frame::Prepare { request_id, name } => {
                let reply = match self.shared.registry.get(&name) {
                    Ok((idx, spec)) => Frame::Prepared {
                        request_id,
                        statement_id: idx as u32,
                        param_count: self.shared.param_counts[idx] as u32,
                        is_update: spec.is_update(),
                    },
                    Err(e) => error_frame(request_id, &e),
                };
                self.enqueue_reply(token, &reply);
            }
            Frame::ExecutePrepared {
                request_id,
                statement_id,
                params,
            } => {
                if (statement_id as usize) >= self.shared.registry.len() {
                    self.shared.requests.fetch_add(1, Ordering::Relaxed);
                    let e = Error::UnknownStatement(format!("statement id {statement_id}"));
                    self.enqueue_reply(token, &error_frame(request_id, &e));
                    return;
                }
                self.submit(token, request_id, statement_id as usize, &params);
            }
            Frame::Query { request_id, sql } => {
                // `EXPLAIN [ANALYZE] <stmt>` answers from the live global
                // plan instead of executing: a one-column result set with
                // one row per rendered plan line, so any client that can
                // run ad-hoc SQL can introspect the shared plan.
                if let Some((analyze, rest)) = parse_explain(&sql) {
                    self.shared.requests.fetch_add(1, Ordering::Relaxed);
                    let reply = match self
                        .resolve_explain_target(rest)
                        .and_then(|index| self.build_explain(index, analyze))
                    {
                        Ok(explain) => Frame::ResultChunk {
                            request_id,
                            flags: chunk_flags::FIRST | chunk_flags::LAST,
                            rows_affected: 0,
                            schema: vec![("PLAN".into(), DataType::Text)],
                            rows: explain
                                .lines()
                                .map(|line| vec![Value::text(line)])
                                .collect(),
                        },
                        Err(e) => error_frame(request_id, &e),
                    };
                    self.enqueue_reply(token, &reply);
                    return;
                }
                let resolved = canonicalize(&sql).and_then(|adhoc_template| {
                    match self.shared.adhoc.get(&adhoc_template.canonical) {
                        Some((index, template)) => {
                            bind_adhoc(template, &adhoc_template).map(|params| (*index, params))
                        }
                        None => Err(Error::UnknownStatement(format!(
                            "no registered statement type matches: {}",
                            adhoc_template.canonical
                        ))),
                    }
                });
                match resolved {
                    Ok((index, params)) => self.submit(token, request_id, index, &params),
                    Err(e) => {
                        self.shared.requests.fetch_add(1, Ordering::Relaxed);
                        self.enqueue_reply(token, &error_frame(request_id, &e));
                    }
                }
            }
            Frame::Ping { request_id } => {
                self.enqueue_reply(token, &Frame::Pong { request_id });
            }
            Frame::Goodbye => {
                self.enqueue_reply(token, &Frame::GoodbyeOk);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.read_closed = true;
                }
            }
            // Server-to-client frames arriving at the server are a protocol
            // violation; drop the connection.
            Frame::HelloOk { .. }
            | Frame::Prepared { .. }
            | Frame::ResultChunk { .. }
            | Frame::Error { .. }
            | Frame::GoodbyeOk
            | Frame::Pong { .. } => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.dead = true;
                }
            }
        }
    }

    /// Resolves EXPLAIN's target — a registered statement name, or ad-hoc
    /// SQL matched by auto-parameterisation — to its registry index.
    fn resolve_explain_target(&self, text: &str) -> Result<usize, Error> {
        let text = text.trim().trim_end_matches(';').trim();
        if text.is_empty() {
            return Err(Error::Parse(
                "EXPLAIN requires a statement name or SQL text".into(),
            ));
        }
        let bare_name = text.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if bare_name {
            return self.shared.registry.get(text).map(|(index, _)| index);
        }
        let template = canonicalize(text)?;
        match self.shared.adhoc.get(&template.canonical) {
            Some((index, _)) => Ok(*index),
            None => Err(Error::UnknownStatement(format!(
                "no registered statement type matches: {}",
                template.canonical
            ))),
        }
    }

    /// Renders one statement type's view of the global plan; when
    /// `analyze`, with the engine's statistics: per-operator counters and
    /// cost attribution.
    fn build_explain(&self, index: usize, analyze: bool) -> Result<String, Error> {
        let engine = self.shared.engine.read();
        let engine = engine.as_ref().ok_or(Error::EngineShutdown)?;
        let plan = engine.plan();
        let registry = engine.registry();
        let data = analyze.then(|| engine.stats());
        Ok(render_explain_text(
            &engine.catalog(),
            plan,
            registry,
            index,
            data.as_ref(),
        ))
    }

    /// Admission control + submission of the statement at `statement` of
    /// the registry.
    fn submit(&mut self, token: u64, request_id: u64, statement: usize, params: &[Value]) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        if self.shared.shutdown.load(Ordering::Acquire) {
            self.enqueue_reply(token, &error_frame(request_id, &Error::EngineShutdown));
            return;
        }
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        // Where the outcome is to be filed: the slot the reply is about to
        // take in this connection's queue.
        let seq = conn.front_seq.wrapping_add(conn.replies.len() as u64) & SEQ_MASK;
        // Per-session in-flight cap: a pipelining client beyond its budget is
        // rejected (retryably) rather than throttled, so its already-admitted
        // work keeps flowing.
        let cap = self.shared.config.max_inflight_per_session;
        if conn.inflight >= cap.min(MAX_INFLIGHT) {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            let e = Error::Overloaded(format!("session in-flight limit of {cap} reached"));
            self.enqueue_reply(token, &error_frame(request_id, &e));
            return;
        }
        // Read-your-writes needs nothing here: a read queues behind its
        // session's write on the engine's one FIFO admission queue, and a
        // batch applies its updates before its reads run.
        let opts = SubmitOptions {
            // Global queue-depth backpressure: enforced inside the engine
            // under the admission-queue lock, so concurrent sessions cannot
            // overshoot the bound.
            max_queue_depth: Some(self.shared.config.max_queue_depth),
            completions: Some((Arc::clone(&self.completions), token << SEQ_BITS | seq)),
        };
        let guard = self.shared.engine.read();
        let outcome = match guard.as_ref() {
            Some(engine) => engine.submit_prepared(statement, params, opts),
            None => Err(Error::EngineShutdown),
        };
        drop(guard);
        match outcome {
            Ok(_) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.inflight += 1;
                    conn.replies.push_back(Reply::Pending {
                        request_id,
                        statement,
                        outcome: None,
                    });
                }
            }
            Err(e) => {
                if matches!(e, Error::Overloaded(_)) {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                }
                self.enqueue_reply(token, &error_frame(request_id, &e));
            }
        }
    }

    // -- write path --------------------------------------------------------

    /// Appends a server frame to the connection's ordered reply queue.
    fn enqueue_reply(&mut self, token: u64, frame: &Frame) {
        let bytes = frame.encode();
        if let Some(conn) = self.conns.get_mut(&token) {
            if bytes.len() - 4 > MAX_FRAME_LEN {
                conn.dead = true; // would desynchronise the stream
                return;
            }
            match conn.replies.back_mut() {
                // Coalesce consecutive ready frames into one buffer.
                Some(Reply::Ready(tail)) => tail.extend_from_slice(&bytes),
                _ => conn.replies.push_back(Reply::Ready(bytes)),
            }
        }
    }

    /// Moves completed replies (in submission order) into the write queue and
    /// flushes as much as the socket accepts. Pump and flush alternate until
    /// neither makes progress: a flush that drops the write queue below the
    /// high-water mark re-opens the pump, so a completed reply can never be
    /// stranded behind a consumed wakeup.
    fn pump_and_flush(&mut self, token: u64) {
        let conn = match self.conns.get_mut(&token) {
            Some(c) if !c.dead => c,
            _ => return,
        };
        loop {
            let mut round = false;
            // Pump: ready bytes move straight out; pending statements only
            // once the engine has delivered their outcome — never out of
            // order.
            while conn.out_len() < WRITE_HIGH_WATER {
                match conn.replies.front_mut() {
                    None => break,
                    Some(Reply::Ready(bytes)) => {
                        let bytes = std::mem::take(bytes);
                        conn.out_for_append().extend_from_slice(&bytes);
                        conn.replies.pop_front();
                        conn.front_seq += 1;
                        round = true;
                    }
                    Some(Reply::Pending {
                        request_id,
                        statement,
                        outcome,
                    }) => {
                        let request_id = *request_id;
                        let statement = *statement;
                        match outcome.take() {
                            None => break,
                            Some(outcome) => {
                                conn.inflight -= 1;
                                conn.replies.pop_front();
                                conn.front_seq += 1;
                                round = true;
                                let ready_at = Instant::now();
                                // Encoded where it is sent from.
                                let out = conn.out_for_append();
                                let ok = match outcome {
                                    Ok(outcome) => encode_outcome(out, request_id, &outcome),
                                    Err(e) => {
                                        out.extend_from_slice(
                                            &error_frame(request_id, &e).encode(),
                                        );
                                        true
                                    }
                                };
                                if !ok {
                                    conn.dead = true;
                                    break;
                                }
                                // Flush phase: outcome ready → last byte of
                                // this reply accepted by the socket.
                                let watermark = conn.flushed + conn.out_len() as u64;
                                conn.pending_flush
                                    .push_back((watermark, ready_at, statement));
                            }
                        }
                    }
                }
            }
            // Flush.
            while conn.out_len() > 0 {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.flushed += n as u64;
                        round = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if !round || conn.dead {
                break;
            }
        }
        // Every reply whose last byte the socket accepted has flushed:
        // record its Flush-phase latency (outcome ready → on the wire) in the
        // engine's phase table, under one read guard for all of them.
        let flushed = |conn: &Conn| {
            let front = conn.pending_flush.front();
            front.is_some_and(|&(watermark, _, _)| watermark <= conn.flushed)
        };
        if flushed(conn) {
            let engine = self.shared.engine.read();
            while flushed(conn) {
                let (_, ready_at, statement) = conn.pending_flush.pop_front().unwrap();
                if let Some(engine) = engine.as_ref() {
                    engine.record_flush(statement, ready_at.elapsed());
                }
            }
        }
        self.update_interest(token);
    }

    fn update_interest(&mut self, token: u64) {
        let draining = self.drain_deadline.is_some();
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.dead {
                return;
            }
            let wanted = conn.wanted_interest(draining);
            if wanted != conn.interest {
                conn.interest = wanted;
                self.poller.update_conn(&conn.stream, token, wanted);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

/// True when a fresh connection's first bytes spell an HTTP method — the
/// binary protocol's first frame is a length-prefixed Hello, whose little-
/// endian length prefix can never be printable ASCII of this shape.
fn looks_like_http(bytes: &[u8]) -> bool {
    const METHODS: [&[u8]; 7] = [
        b"GET ", b"HEAD", b"POST", b"PUT ", b"DELE", b"OPTI", b"PATC",
    ];
    if bytes.len() < 4 {
        return false;
    }
    METHODS.iter().any(|m| bytes.starts_with(m))
}

/// Offset just past the `\r\n\r\n` terminating the request head, if present.
fn find_header_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// Parses `METHOD /path HTTP/1.x` into (method, path). `None` is malformed.
fn parse_request_line(line: &[u8]) -> Option<(String, String)> {
    let line = std::str::from_utf8(line).ok()?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || !path.starts_with('/') || !version.starts_with("HTTP/") {
        return None;
    }
    Some((method.to_string(), path.to_string()))
}

/// Builds a minimal `Connection: close` HTTP/1.1 response.
fn http_response(status: u16, reason: &str, body: &str) -> Vec<u8> {
    let content_type = if status == 200 {
        "text/plain; version=0.0.4; charset=utf-8"
    } else {
        "text/plain; charset=utf-8"
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn error_frame(request_id: u64, error: &Error) -> Frame {
    let (code, retryable) = error_to_wire(error);
    Frame::Error {
        request_id,
        code,
        retryable,
        message: error.to_string(),
    }
}

/// Appends a statement outcome to `buf` as its response frames. Returns
/// false, leaving `buf` as it was, when a frame would exceed the protocol
/// limit (the connection must be dropped).
fn encode_outcome(buf: &mut Vec<u8>, request_id: u64, outcome: &QueryOutcome) -> bool {
    match outcome {
        QueryOutcome::Updated { rows_affected } => {
            let frame = Frame::ResultChunk {
                request_id,
                flags: chunk_flags::FIRST | chunk_flags::LAST | chunk_flags::UPDATE,
                rows_affected: *rows_affected as u64,
                schema: vec![],
                rows: vec![],
            };
            buf.extend_from_slice(&frame.encode()); // a few dozen bytes
            true
        }
        QueryOutcome::Rows(result) => {
            let start = buf.len();
            let n_chunks = result.rows.len().div_ceil(CHUNK_ROWS).max(1);
            for (i, chunk) in result
                .rows
                .chunks(CHUNK_ROWS)
                .chain(std::iter::repeat_n(
                    &[][..],
                    usize::from(result.rows.is_empty()),
                ))
                .enumerate()
            {
                let mut flags = 0u8;
                if i == 0 {
                    flags |= chunk_flags::FIRST;
                }
                if i + 1 == n_chunks {
                    flags |= chunk_flags::LAST;
                }
                // Only the first chunk carries the schema.
                let columns = if i == 0 { result.schema.columns() } else { &[] };
                if !encode_result_chunk(buf, request_id, flags, columns, chunk) {
                    buf.truncate(start);
                    return false;
                }
            }
            true
        }
    }
}
