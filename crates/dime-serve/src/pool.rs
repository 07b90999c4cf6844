//! The one serving path of every front end of the protocol: the epoll
//! admission loop (`poll.rs`) in front of a worker pool, parameterised by
//! the request handler. [`Server`](crate::Server) runs it with the
//! session handler; `dime-cluster`'s router runs it with its routing
//! handler. See `DESIGN.md` §10.
//!
//! Ops flow admission → pool over a *bounded* queue (a full queue is
//! answered inline with the retryable `overloaded`); completions flow
//! back over an unbounded channel paired with the poll loop's waker and
//! are written out in per-connection request order. A panicking handler
//! is caught and answered `internal`. The handler runs here, on a worker
//! thread, so it may block; nothing in this module runs on the poll
//! thread.

use crate::metrics::{AdmissionMetrics, GlobalMetrics};
use crate::poll::{admission_loop, Poller, Waker, TOKEN_WAKER};
use crate::protocol::{encode_frame, ErrorCode, Request, Response};
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

    /// Serves `listener` until shutdown completes its drain, answering
    /// every decoded request through `handler` on the worker pool.
    ///
    /// The calling thread runs the admission poll loop; the scope's
    /// spawned threads are the pool. The admission loop returning drops
    /// the op sender, which drains and releases the pool. `sink` receives
    /// the loop's `admission` spans and `verify_queue_depth` samples.
    pub fn serve<H>(
        &self,
        listener: TcpListener,
        sink: &dyn TraceSink,
        handler: H,
    ) -> io::Result<()>
    where
        H: Fn(&Request) -> Response + Sync,
    {
        let poller = Poller::new()?;
        let waker = poller.waker(TOKEN_WAKER)?;
        let (ops_tx, ops_rx) = mpsc::sync_channel::<OpJob>(self.config.queue_capacity);
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let ops_rx = Mutex::new(ops_rx);
        let (ops_rx, handler) = (&ops_rx, &handler);
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers {
                let done_tx = done_tx.clone();
                let waker = waker.clone();
                scope.spawn(move || worker(ops_rx, &done_tx, &waker, self, handler));
            }
            drop(done_tx);
            admission_loop(poller, &waker, listener, self, sink, ops_tx, &done_rx)
        })
    }
}

/// One decoded request in flight from the admission layer to the pool:
/// which connection asked, and where in that connection's response order
/// the answer belongs.
pub(crate) struct OpJob {
    /// Admission-layer connection token.
    pub conn: u64,
    /// Position in the connection's response order.
    pub seq: u64,
    /// The decoded request.
    pub req: Request,
}

/// One finished response on its way back to the admission layer.
pub(crate) struct Completion {
    /// Connection token the response belongs to.
    pub conn: u64,
    /// Position in that connection's response order.
    pub seq: u64,
    /// The encoded response frame, ready to write.
    pub frame: Vec<u8>,
    /// Whether this op asked the front end to shut down.
    pub shutdown: bool,
}

/// One pool thread: pulls ops off the bounded queue one at a time until
/// the admission loop hangs up, answers each through `handler`, counts
/// it, and ships the encoded response back. Holding the receiver lock
/// across `recv` is deliberate: exactly one idle worker blocks on the
/// channel.
fn worker<H>(
    rx: &Mutex<mpsc::Receiver<OpJob>>,
    done: &mpsc::Sender<Completion>,
    waker: &Waker,
    admission: &Admission,
    handler: &H,
) where
    H: Fn(&Request) -> Response + Sync,
{
    loop {
        let Ok(OpJob { conn, seq, req }) = lock(rx).recv() else { return };
        // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
        admission.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let shutdown = matches!(req, Request::Shutdown);
        let resp = catch_unwind(AssertUnwindSafe(|| handler(&req)))
            .unwrap_or_else(|_| Response::err(ErrorCode::Internal, "request handler panicked"));
        GlobalMetrics::bump(&admission.metrics.requests);
        if !resp.is_ok() {
            GlobalMetrics::bump(&admission.metrics.errors);
        }
        let frame = encode_frame(&resp.to_value()).into_bytes();
        let _ = done.send(Completion { conn, seq, frame, shutdown });
        waker.wake();
    }
}
