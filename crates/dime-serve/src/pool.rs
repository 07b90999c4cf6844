//! The one serving path of every listening socket: the epoll admission
//! loop (`poll.rs`) in front of a worker pool, parameterised by the wire
//! format ([`Codec`]) and the request handler. The server and
//! `dime-cluster`'s router run it with [`JsonLines`](crate::JsonLines),
//! the follower with the replication codec. See `DESIGN.md` §10.
//!
//! Ops flow admission → pool over a *bounded* queue (a full queue is
//! answered inline with the codec's rejection); completions flow back
//! over an unbounded channel paired with the poll loop's waker and are
//! written out in per-connection request order. A panicking handler is
//! caught and rejected too. The handler runs on a worker thread, so it
//! may block; of this module only the codec runs on the poll thread.

use crate::metrics::{AdmissionMetrics, GlobalMetrics};
use crate::poll::{admission_loop, Poller, Waker, TOKEN_WAKER};
use crate::session::lock;
use crate::ServeConfig;
use dime_trace::TraceSink;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// What a serving front end owns of its admission layer: its config (the
/// limits the poll loop enforces, the queue capacity, the worker count),
/// the shutdown flag, the admission counters, and the op-queue depth.
#[derive(Debug)]
pub struct Admission {
    config: ServeConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    pub(crate) metrics: AdmissionMetrics,
    /// Ops queued and not yet popped by a worker.
    pub(crate) queue_depth: AtomicU64,
}

impl Admission {
    /// Owns `config` for a listener bound at `addr`, with `workers: 0`
    /// resolved to the available cores (floored at 4) and the poll
    /// interval and queue capacity floored at their least usable values.
    pub fn new(mut config: ServeConfig, addr: SocketAddr) -> Self {
        if config.workers == 0 {
            config.workers = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .max(4);
        }
        config.poll_interval = config.poll_interval.max(Duration::from_millis(1));
        config.queue_capacity = config.queue_capacity.max(1);
        Self {
            config,
            addr,
            shutdown: AtomicBool::new(false),
            metrics: AdmissionMetrics::default(),
            queue_depth: AtomicU64::new(0),
        }
    }

    /// The config, with the worker count and floors resolved.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission counters.
    pub fn metrics(&self) -> &AdmissionMetrics {
        &self.metrics
    }

    /// Starts graceful shutdown: the poll loop stops admitting within one
    /// poll interval, answers everything already admitted, and returns.
    pub fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Serves `listener` until shutdown completes its drain, framing
    /// every connection's bytes with `codec` and answering every decoded
    /// request through `handler` on the worker pool.
    ///
    /// The calling thread runs the admission poll loop; the scope's
    /// spawned threads are the pool. The admission loop returning drops
    /// the op sender, which drains and releases the pool. `sink` receives
    /// the loop's `admission` spans and `verify_queue_depth` samples.
    pub fn serve<C, H>(
        &self,
        listener: TcpListener,
        sink: &dyn TraceSink,
        codec: &C,
        handler: H,
    ) -> io::Result<()>
    where
        C: Codec,
        H: Fn(&C::Request) -> C::Response + Sync,
    {
        let poller = Poller::new()?;
        let waker = poller.waker(TOKEN_WAKER)?;
        let (ops_tx, ops_rx) = mpsc::sync_channel::<OpJob<C::Request>>(self.config.queue_capacity);
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let ops_rx = Mutex::new(ops_rx);
        let (ops_rx, handler) = (&ops_rx, &handler);
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers {
                let done_tx = done_tx.clone();
                let waker = waker.clone();
                scope.spawn(move || worker(ops_rx, &done_tx, &waker, self, codec, handler));
            }
            drop(done_tx);
            admission_loop(poller, &waker, listener, self, codec, sink, ops_tx, &done_rx)
        })
    }
}

/// A wire format [`Admission::serve`] speaks. The poll loop owns each
/// connection's unread bytes; the codec says where a frame ends, what it
/// asks, and how an answer goes out. It runs on the poll thread, so none
/// of it may block.
pub trait Codec: Sync {
    /// A decoded request, as the handler sees it.
    type Request: Send;
    /// An answer, from the handler or from the front end itself.
    type Response;
    /// One connection's framing state between reads.
    type Framing: Default;

    /// Finds the next frame at the front of `buf`, a connection's unread
    /// bytes; `eof` says the peer will send no more.
    fn split(&self, framing: &mut Self::Framing, buf: &[u8], eof: bool) -> Split;
    /// Decodes the bytes of one [`Split::Frame`]: `None` if it asks
    /// nothing, and an undecodable frame is answered inline with the `Err`.
    fn decode(&self, frame: &[u8]) -> Option<Result<Self::Request, Self::Response>>;
    /// The answer to a request the front end turns away itself.
    fn reject(&self, why: Reject) -> Self::Response;
    /// Encodes an answer, or refuses with `None`: the connection closes
    /// once the answers ahead of it have had their write.
    fn encode(&self, resp: &Self::Response) -> Option<Vec<u8>>;
    /// Whether `resp` counts in the `errors` counter.
    fn is_error(&self, resp: &Self::Response) -> bool;
    /// Whether `req` asks the front end to shut down once answered.
    fn is_shutdown(&self, req: &Self::Request) -> bool;
}

/// Where [`Codec::split`] found the next frame's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// No whole frame yet: read more.
    Partial,
    /// The first `n` bytes are one frame.
    Frame(usize),
    /// The first `n` bytes are dropped unanswered.
    Skip(usize),
    /// The first `n` bytes end a frame over the size cap.
    Oversized(usize),
    /// The bytes cannot be framed: stop reading and refuse, in order.
    Corrupt,
}

/// Why the front end answers a request without the handler's help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The frame was over the size cap.
    Oversized,
    /// The bounded op queue was full.
    Overloaded,
    /// The handler panicked.
    Panicked,
}

/// One decoded request in flight from the admission layer to the pool:
/// which connection asked, and where in that connection's response order
/// the answer belongs.
pub(crate) struct OpJob<R> {
    /// Admission-layer connection token.
    pub conn: u64,
    /// Position in the connection's response order.
    pub seq: u64,
    /// The decoded request.
    pub req: R,
}

/// One finished response on its way back to the admission layer.
pub(crate) struct Completion {
    /// Connection token the response belongs to.
    pub conn: u64,
    /// Position in that connection's response order.
    pub seq: u64,
    /// The encoded response frame, ready to write; `None` refuses.
    pub frame: Option<Vec<u8>>,
    /// Whether this op asked the front end to shut down.
    pub shutdown: bool,
}

/// One pool thread: pulls ops off the bounded queue one at a time until
/// the admission loop hangs up, answers each through `handler`, counts
/// it, and ships the encoded response back. Holding the receiver lock
/// across `recv` is deliberate: exactly one idle worker blocks on the
/// channel.
fn worker<C, H>(
    rx: &Mutex<mpsc::Receiver<OpJob<C::Request>>>,
    done: &mpsc::Sender<Completion>,
    waker: &Waker,
    admission: &Admission,
    codec: &C,
    handler: &H,
) where
    C: Codec,
    H: Fn(&C::Request) -> C::Response + Sync,
{
    loop {
        let Ok(OpJob { conn, seq, req }) = lock(rx).recv() else { return };
        // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
        admission.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let shutdown = codec.is_shutdown(&req);
        let resp = catch_unwind(AssertUnwindSafe(|| handler(&req)))
            .unwrap_or_else(|_| codec.reject(Reject::Panicked));
        GlobalMetrics::bump(&admission.metrics.requests);
        if codec.is_error(&resp) {
            GlobalMetrics::bump(&admission.metrics.errors);
        }
        let frame = codec.encode(&resp);
        let _ = done.send(Completion { conn, seq, frame, shutdown });
        waker.wake();
    }
}
