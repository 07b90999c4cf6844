//! The non-blocking admission layer: a zero-dependency epoll-based poll
//! loop owning every client socket, plus the small mio-style readiness
//! abstraction it runs on ([`Poller`] / [`Waker`] / [`Event`]).
//!
//! Division of labor (see `DESIGN.md` §10):
//!
//! * **this module** owns the listener and all connections, does
//!   non-blocking reads and writes with per-connection buffers, has the
//!   front end's [`Codec`] split and decode the read bytes into requests,
//!   and *never touches the engine*;
//! * decoded ops flow through a **bounded** queue into the worker pool
//!   (`pool.rs`, which runs the front end's request handler); a full
//!   queue is answered inline with the codec's rejection (JSON lines:
//!   the retryable `overloaded` error) — backpressure instead of
//!   unbounded buffering;
//! * completions flow back over an unbounded channel paired with a
//!   [`Waker`]; per-connection response *order* is preserved by a
//!   sequence-number reorder buffer, so pipelined requests still get
//!   pipelined responses even though the pool completes them out of
//!   order.
//!
//! The loop knows nothing of sessions, shards or replication: its limits,
//! shutdown flag and counters come from an [`Admission`] and its wire
//! format from a [`Codec`], so a server, a cluster router and a follower
//! run the same code.
//!
//! The `dime-check` rule `blocking-reaches-poll-loop` treats every
//! function in this file as an entry point and walks the workspace call
//! graph: every `read`/`write`/`accept` reachable from here on the
//! admission thread must be against a non-blocking fd, and each such
//! call site carries a reasoned allow. The
//! raw `epoll`/`eventfd` syscall shim is confined to the [`sys`] module —
//! the single audited unsafe boundary of the crate.

use crate::metrics::GlobalMetrics;
use crate::pool::{Admission, Codec, Completion, OpJob, Reject, Split};
use crate::ServeConfig;
use dime_trace::{span, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw syscall shim over glibc's `epoll_create1` / `epoll_ctl` /
/// `epoll_wait` / `eventfd` — the one place in the crate allowed to use
/// `unsafe`. Everything it exports is a safe function over owned fds; the
/// event loop above never sees a raw pointer.
mod sys {
    #![allow(unsafe_code)]

    use std::io;

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EFD_NONBLOCK: i32 = 0x800;
    const EFD_CLOEXEC: i32 = 0x80000;

    /// Kernel `struct epoll_event`. Packed on x86_64 (the kernel ABI
    /// packs it there); naturally aligned everywhere else.
    #[derive(Clone, Copy)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    // std already links libc; these are ordinary glibc symbols.
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn epoll_create() -> io::Result<i32> {
        // SAFETY: no pointers cross the boundary; a negative return is an
        // errno, surfaced as io::Error.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    /// `epoll_ctl` with an interest mask and a caller token.
    pub fn ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning (EPOLL_CTL_DEL ignores the pointer on any kernel this
        // code targets, and a valid one is passed regardless).
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// `epoll_wait` into `buf`, returning how many events were filled.
    /// `Interrupted` (EINTR) is reported as zero events, not an error.
    pub fn wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the buffer is a live, exclusively borrowed slice whose
        // length bounds maxevents, so the kernel writes only into it.
        let n = unsafe {
            epoll_wait(epfd, buf.as_mut_ptr(), buf.len().min(i32::MAX as usize) as i32, timeout_ms)
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }

    /// A non-blocking `eventfd` for cross-thread wakeups.
    pub fn eventfd_new() -> io::Result<i32> {
        // SAFETY: no pointers cross the boundary.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    /// Adds 1 to the eventfd counter, waking any poller watching it.
    /// Best-effort: a full counter (the wakeup is already pending) or a
    /// racing close is not an error worth surfacing.
    pub fn eventfd_signal(fd: i32) {
        let one: u64 = 1;
        // SAFETY: the buffer is a live 8-byte local; the fd is
        // O_NONBLOCK, so the call cannot block.
        // dime-check: allow(blocking-reaches-poll-loop) — eventfd opened with EFD_NONBLOCK; cannot block
        let _ = unsafe { write(fd, (&one as *const u64).cast(), 8) };
    }

    /// Resets the eventfd counter so the next signal is a fresh edge.
    pub fn eventfd_drain(fd: i32) {
        let mut buf: u64 = 0;
        // SAFETY: the buffer is a live 8-byte local; the fd is
        // O_NONBLOCK, so the call returns EAGAIN instead of blocking.
        // dime-check: allow(blocking-reaches-poll-loop) — eventfd opened with EFD_NONBLOCK; cannot block
        let _ = unsafe { read(fd, (&mut buf as *mut u64).cast(), 8) };
    }

    /// Closes an owned fd.
    pub fn close_fd(fd: i32) {
        // SAFETY: callers only pass fds they own exactly once (Drop).
        let _ = unsafe { close(fd) };
    }
}

/// Readiness of one registered fd, by token.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or a pending accept on a listener).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer closed its write side (`EPOLLRDHUP`): drain reads, keep
    /// writing what is owed.
    pub read_closed: bool,
    /// Hard error or full hangup (`EPOLLERR`/`EPOLLHUP`).
    pub error: bool,
}

/// Interest in readability.
pub(crate) const INTEREST_READ: u32 = sys::EPOLLIN | sys::EPOLLRDHUP;
/// Interest in readability and writability.
pub(crate) const INTEREST_READ_WRITE: u32 = INTEREST_READ | sys::EPOLLOUT;

/// A mio-style epoll wrapper: register fds under `u64` tokens, wait for
/// batches of [`Event`]s. Owns the epoll fd.
pub(crate) struct Poller {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

impl Poller {
    /// Opens a fresh epoll instance.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            epfd: sys::epoll_create()?,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    /// Registers `fd` under `token` with the given interest mask.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        sys::ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest mask of a registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        sys::ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters a fd. Best-effort: the kernel auto-deregisters on
    /// close anyway; an already-gone fd is not an error.
    pub fn delete(&self, fd: RawFd) {
        let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Creates a [`Waker`] and registers its eventfd under `token`.
    pub fn waker(&self, token: u64) -> io::Result<Waker> {
        let fd = sys::eventfd_new()?;
        if let Err(e) = sys::ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token) {
            sys::close_fd(fd);
            return Err(e);
        }
        Ok(Waker { fd: Arc::new(EventFd(fd)) })
    }

    /// Blocks up to `timeout` for readiness, filling `out`. EINTR is a
    /// zero-event wakeup, not an error.
    pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX).max(0);
        let n = sys::wait(self.epfd, &mut self.buf, ms)?;
        for raw in self.buf.iter().take(n) {
            let ev = *raw; // copy out of the (possibly packed) kernel struct
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                read_closed: bits & sys::EPOLLRDHUP != 0,
                error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

struct EventFd(RawFd);

impl Drop for EventFd {
    fn drop(&mut self) {
        sys::close_fd(self.0);
    }
}

/// A cloneable cross-thread wakeup handle for a [`Poller`]: the verify
/// pool signals it after pushing completions so the poll loop does not
/// sit out a full poll interval before writing responses.
#[derive(Clone)]
pub(crate) struct Waker {
    fd: Arc<EventFd>,
}

impl Waker {
    /// Wakes the poller. Cheap, non-blocking, callable from any thread.
    pub fn wake(&self) {
        sys::eventfd_signal(self.fd.0);
    }

    /// Consumes a pending wakeup edge (poll-loop side).
    fn drain(&self) {
        sys::eventfd_drain(self.fd.0);
    }
}

/// Listener token.
const TOKEN_LISTENER: u64 = 0;
/// Waker token.
pub(crate) const TOKEN_WAKER: u64 = 1;
/// First connection token.
const TOKEN_FIRST_CONN: u64 = 2;

/// Bytes per read syscall. Deliberately small: with 10k+ held
/// connections the per-connection buffers dominate the server's memory,
/// and a connection's unread bytes accumulate larger frames across reads.
const READ_BUF_BYTES: usize = 2048;

/// One admitted connection: the stream, its unread bytes and the codec's
/// framing state over them, the response reorder buffer, and the write
/// queue.
struct Conn<F> {
    stream: TcpStream,
    /// Bytes read and not yet split into frames; released when empty.
    inbuf: Vec<u8>,
    framing: F,
    /// Next request sequence to assign (one per answered frame).
    next_seq: u64,
    /// Next response sequence owed to the peer.
    next_write: u64,
    /// Completions that arrived ahead of `next_write`, by sequence; a
    /// `None` refuses the request and ends the connection.
    pending: BTreeMap<u64, Option<Vec<u8>>>,
    /// Bytes owed to the peer, already in order. `outpos` marks how much
    /// of it has been written.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Whether `EPOLLOUT` is currently part of the interest mask.
    want_write: bool,
    /// Peer finished sending (EOF or `EPOLLRDHUP` drained).
    read_closed: bool,
    /// Hard failure: drop the connection without waiting for answers.
    dead: bool,
    /// Last read/completion/write progress, for idle/drain/write-stall
    /// sweeps.
    last_progress: Instant,
}

impl<F: Default> Conn<F> {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream,
            inbuf: Vec::new(),
            framing: F::default(),
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            outbuf: Vec::new(),
            outpos: 0,
            want_write: false,
            read_closed: false,
            dead: false,
            last_progress: now,
        }
    }
}

impl<F> Conn<F> {
    /// Whether every answer owed has been flushed: each sequence number
    /// handed out, to an op or an inline answer, has been written.
    fn drained(&self) -> bool {
        self.next_write == self.next_seq && self.outpos >= self.outbuf.len()
    }
}

/// Runs the admission loop until shutdown completes its drain: every
/// connection either answered-and-closed or timed out of its grace
/// window. Dropping `ops` on return is what releases the worker pool.
#[allow(clippy::too_many_arguments)]
pub(crate) fn admission_loop<C: Codec>(
    mut poller: Poller,
    waker: &Waker,
    listener: TcpListener,
    admission: &Admission,
    codec: &C,
    sink: &dyn TraceSink,
    ops: mpsc::SyncSender<OpJob<C::Request>>,
    done: &mpsc::Receiver<Completion>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, sys::EPOLLIN)?;

    let poll_interval = admission.config().poll_interval;
    let mut conns: HashMap<u64, Conn<C::Framing>> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events: Vec<Event> = Vec::new();
    let mut draining = false;
    // dime-check: allow(wall-clock-in-core) — idle/drain sweep pacing for connection lifecycle, never discovery state
    let mut last_sweep = Instant::now();

    loop {
        poller.wait(poll_interval, &mut events)?;
        // dime-check: allow(wall-clock-in-core) — idle/drain sweep pacing for connection lifecycle, never discovery state
        let now = Instant::now();

        if !events.is_empty() {
            let _admission = span(sink, "admission");
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_LISTENER if !draining => {
                        accept_all(&poller, &listener, admission, &mut conns, &mut next_token, now)
                    }
                    TOKEN_LISTENER => {}
                    TOKEN_WAKER => waker.drain(),
                    token => {
                        let Some(conn) = conns.get_mut(&token) else { continue };
                        if ev.error {
                            conn.dead = true;
                            continue;
                        }
                        if ev.readable || ev.read_closed {
                            read_conn(token, conn, admission, codec, sink, &ops, now);
                            // Inline answers (decode errors, shed ops,
                            // refusals) land in the reorder buffer with no
                            // worker completion to flush them; flush here
                            // or they strand behind a quiet queue.
                            flush_ready(&poller, token, conn, now);
                        }
                        if ev.writable {
                            write_conn(&poller, token, conn, now);
                        }
                    }
                }
            }
        }

        // Route completions from the verify pool into their connections'
        // reorder buffers, then flush whatever became in-order.
        while let Ok(c) = done.try_recv() {
            if c.shutdown {
                admission.initiate_shutdown();
            }
            if let Some(conn) = conns.get_mut(&c.conn) {
                conn.pending.insert(c.seq, c.frame);
                flush_ready(&poller, c.conn, conn, now);
            }
        }

        if !draining && admission.is_shutting_down() {
            // Stop admitting: no new connections, and the listener's
            // backlog is abandoned. Held connections get their drain
            // grace below.
            draining = true;
            poller.delete(listener.as_raw_fd());
        }

        // Dead or EOF-drained connections leave at once; the patience
        // checks run once per poll interval.
        let full = now.duration_since(last_sweep) >= poll_interval;
        if full {
            last_sweep = now;
        }
        sweep(&poller, &mut conns, full.then_some(admission.config()), draining, now);

        if draining && conns.is_empty() {
            return Ok(());
        }
    }
}

/// Accepts every pending connection (the listener is level-triggered and
/// non-blocking, so this drains the backlog without ever parking).
fn accept_all<F: Default>(
    poller: &Poller,
    listener: &TcpListener,
    admission: &Admission,
    conns: &mut HashMap<u64, Conn<F>>,
    next_token: &mut u64,
    now: Instant,
) {
    loop {
        // dime-check: allow(blocking-reaches-poll-loop) — the listener is set_nonblocking(true); returns WouldBlock instead of blocking
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller.add(stream.as_raw_fd(), token, INTEREST_READ).is_err() {
                    continue;
                }
                GlobalMetrics::bump(&admission.metrics.connections);
                conns.insert(token, Conn::new(stream, now));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Reads everything the connection has sent and has the codec split it:
/// skipped bytes are dropped, oversized and undecodable frames are
/// answered inline, and decoded requests go to [`admit`]. Unframeable
/// bytes end the reading and queue a refusal behind the answers already
/// owed.
fn read_conn<C: Codec>(
    token: u64,
    conn: &mut Conn<C::Framing>,
    admission: &Admission,
    codec: &C,
    sink: &dyn TraceSink,
    ops: &mpsc::SyncSender<OpJob<C::Request>>,
    now: Instant,
) {
    let mut chunk = [0u8; READ_BUF_BYTES];
    loop {
        loop {
            let (n, answer) = match codec.split(&mut conn.framing, &conn.inbuf, conn.read_closed) {
                Split::Partial => break,
                Split::Corrupt => {
                    conn.read_closed = true;
                    conn.inbuf = Vec::new();
                    conn.pending.insert(conn.next_seq, None);
                    conn.next_seq += 1;
                    return;
                }
                Split::Skip(n) => (n, None),
                Split::Oversized(n) => {
                    GlobalMetrics::bump(&admission.metrics.oversized_frames);
                    (n, Some(codec.reject(Reject::Oversized)))
                }
                Split::Frame(n) => match codec.decode(conn.inbuf.get(..n).unwrap_or(&[])) {
                    Some(Ok(req)) => {
                        let shed = !admit(token, conn, admission, sink, ops, req);
                        (n, shed.then(|| codec.reject(Reject::Overloaded)))
                    }
                    Some(Err(resp)) => (n, Some(resp)),
                    None => (n, None),
                },
            };
            conn.inbuf.drain(..n.min(conn.inbuf.len()));
            conn.last_progress = now;
            if let Some(resp) = answer {
                GlobalMetrics::bump(&admission.metrics.requests);
                GlobalMetrics::bump(&admission.metrics.errors);
                conn.pending.insert(conn.next_seq, codec.encode(&resp));
                conn.next_seq += 1;
            }
        }
        if conn.inbuf.is_empty() && conn.inbuf.capacity() > READ_BUF_BYTES {
            conn.inbuf = Vec::new();
        }
        if conn.read_closed {
            return;
        }
        // dime-check: allow(blocking-reaches-poll-loop) — the stream is set_nonblocking(true) at accept; returns WouldBlock instead of blocking
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => conn.read_closed = true,
            Ok(n) => conn.inbuf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return;
            }
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Hands a decoded request to the worker pool; `false` when the bounded
/// queue is full and the request must be shed.
fn admit<R>(
    token: u64,
    conn: &mut Conn<impl Sized>,
    admission: &Admission,
    sink: &dyn TraceSink,
    ops: &mpsc::SyncSender<OpJob<R>>,
    req: R,
) -> bool {
    // Count the op before handing it over: a worker may pop (and
    // decrement) the instant try_send returns, so incrementing afterwards
    // could race the counter below zero.
    // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
    let depth = admission.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    match ops.try_send(OpJob { conn: token, seq: conn.next_seq, req }) {
        Ok(()) => {
            conn.next_seq += 1;
            if sink.enabled() {
                sink.latency("verify_queue_depth", depth);
            }
            true
        }
        Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
            // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
            admission.queue_depth.fetch_sub(1, Ordering::Relaxed);
            GlobalMetrics::bump(&admission.metrics.overloaded);
            false
        }
    }
}

/// Moves in-order completions from the reorder buffer into the write
/// queue, then writes as much as the socket accepts. An in-order refusal
/// ends the connection after that write.
fn flush_ready<F>(poller: &Poller, token: u64, conn: &mut Conn<F>, now: Instant) {
    let mut refused = false;
    while let Some(frame) = conn.pending.remove(&conn.next_write) {
        conn.next_write += 1;
        let Some(frame) = frame else {
            refused = true;
            break;
        };
        conn.outbuf.extend_from_slice(&frame);
    }
    write_conn(poller, token, conn, now);
    conn.dead |= refused;
}

/// Non-blocking write of the owed bytes; registers `EPOLLOUT` interest
/// exactly while a partial write leaves the buffer non-empty.
fn write_conn<F>(poller: &Poller, token: u64, conn: &mut Conn<F>, now: Instant) {
    while conn.outpos < conn.outbuf.len() {
        let chunk = conn.outbuf.get(conn.outpos..).unwrap_or(&[]);
        // dime-check: allow(blocking-reaches-poll-loop) — the stream is set_nonblocking(true) at accept; returns WouldBlock instead of blocking
        match (&conn.stream).write(chunk) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.outpos += n;
                conn.last_progress = now;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.outpos >= conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
    }
    let want = conn.outpos < conn.outbuf.len();
    if want != conn.want_write {
        let interest = if want { INTEREST_READ_WRITE } else { INTEREST_READ };
        if poller.modify(conn.stream.as_raw_fd(), token, interest).is_ok() {
            conn.want_write = want;
        }
    }
}

/// Closes connections that are done: dead ones and EOF'd ones with
/// nothing left to answer. A full sweep (`config` given) also closes
/// those out of patience: write-stalled ones past the write timeout, idle
/// ones past the idle timeout, and — while draining — quiet ones past the
/// two-poll-interval drain grace.
fn sweep<F>(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn<F>>,
    config: Option<&ServeConfig>,
    draining: bool,
    now: Instant,
) {
    conns.retain(|_, conn| {
        let quiet = now.duration_since(conn.last_progress);
        let impatient = config.is_some_and(|c| {
            let grace = if draining { c.poll_interval * 2 } else { c.idle_timeout };
            (conn.outpos < conn.outbuf.len() && quiet >= c.write_timeout)
                || (conn.drained() && quiet >= grace)
        });
        if conn.dead || (conn.read_closed && conn.drained()) || impatient {
            poller.delete(conn.stream.as_raw_fd());
            return false;
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn poller_reports_readability_by_token() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(b.as_raw_fd(), 7, INTEREST_READ).unwrap();

        let mut events = Vec::new();
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "nothing written yet");

        (&a).write_all(b"hello\n").unwrap();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].error);
    }

    #[test]
    fn poller_reports_peer_close() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(b.as_raw_fd(), 3, INTEREST_READ).unwrap();
        drop(a);

        let mut events = Vec::new();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 3);
        assert!(events[0].read_closed || events[0].error || events[0].readable);
    }

    #[test]
    fn waker_wakes_and_drains() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker(TOKEN_WAKER).unwrap();
        let mut events = Vec::new();

        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty());

        let remote = waker.clone();
        std::thread::spawn(move || remote.wake()).join().unwrap();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, TOKEN_WAKER);
        waker.drain();

        // Drained: no stale wakeup edge remains.
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "waker must be edge-consumed after drain");
    }

    #[test]
    fn write_interest_is_on_demand() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(b.as_raw_fd(), 5, INTEREST_READ).unwrap();

        let mut events = Vec::new();
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "read-only interest on an idle socket is silent");

        poller.modify(b.as_raw_fd(), 5, INTEREST_READ_WRITE).unwrap();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].writable, "an empty send buffer is writable immediately");
    }
}
