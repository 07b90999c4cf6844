//! A small blocking client for the discovery service — the same framed
//! protocol as the server, one request/response pair at a time over a
//! persistent connection.
//!
//! ```no_run
//! use dime_serve::Client;
//! use serde_json::json;
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! let session = client.create_session(
//!     &json!({"schema": [{"name": "Authors", "tokenizer": {"list": ","}}]}),
//!     "positive: overlap(Authors) >= 2\nnegative: overlap(Authors) <= 0",
//! )?;
//! client.add_entities(session, &[json!(["ann, bob"]), json!(["ann, bob, carl"])])?;
//! let report = client.discovery(session)?;
//! println!("{}", report["pivot"]);
//! # Ok::<(), dime_serve::ClientError>(())
//! ```

use crate::protocol::{
    encode_frame, ErrorCode, Frame, FrameReader, ProtocolError, Request, Response, RuleAction,
    DEFAULT_MAX_FRAME_BYTES,
};
use dime_core::Polarity;
use serde_json::Value;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Errors a [`Client`] call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (connect, read, write, or unexpected EOF).
    Io(io::Error),
    /// The server's reply violated the wire protocol.
    Protocol(ProtocolError),
    /// The server answered with a structured error response.
    Server {
        /// The machine-readable code.
        code: ErrorCode,
        /// The human-readable description.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// Bounded retry-with-backoff, configured by [`Client::with_retry`].
#[derive(Debug, Clone, Copy)]
struct RetryPolicy {
    attempts: u32,
    base_ms: u64,
}

/// An IO failure that a reconnect-and-resend can plausibly cure: the
/// connection was refused, reset, or timed out — nothing about the
/// request itself was rejected.
fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    )
}

/// A blocking connection to a discovery server.
pub struct Client {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: TcpStream,
    peer: Option<SocketAddr>,
    retry: Option<RetryPolicy>,
}

impl Client {
    /// Connects to a server address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an already-connected stream, keeping its socket options (a
    /// caller that set read/write timeouts gets a client whose requests
    /// fail with an `Io` error instead of blocking past them).
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr().ok();
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: FrameReader::new(BufReader::new(stream), DEFAULT_MAX_FRAME_BYTES),
            writer,
            peer,
            retry: None,
        })
    }

    /// Enables bounded retry: on a transient IO failure (connection
    /// refused/reset, broken pipe, unexpected EOF, `WouldBlock`/timeout)
    /// the client reconnects and resends, and on a server error whose
    /// code is [`ErrorCode::retryable`] it resends, up to `attempts`
    /// extra tries with exponential backoff starting at `base_ms`
    /// milliseconds. Off by default.
    ///
    /// Retrying resends the request verbatim, so a mutation whose first
    /// send died *after* the server applied it can apply twice — enable
    /// this only where that is acceptable (idempotent ops, or a failover
    /// window where the dead primary's unacknowledged work is gone).
    pub fn with_retry(mut self, attempts: u32, base_ms: u64) -> Self {
        self.retry = Some(RetryPolicy { attempts, base_ms });
        self
    }

    /// Drops the current connection and dials the original peer again.
    fn reconnect(&mut self) -> io::Result<()> {
        let peer = self
            .peer
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "peer address unknown"))?;
        *self = Self { retry: self.retry, ..Self::from_stream(TcpStream::connect(peer)?)? };
        Ok(())
    }

    /// Whether this idle connection can no longer carry a request: the
    /// server closed it (EOF or an error pending on the socket) or sent
    /// bytes no request asked for. Sends nothing — a non-blocking peek —
    /// so a pool can check a connection before handing it out, without
    /// risking a request the server may already have received.
    pub fn is_stale(&self) -> bool {
        if self.writer.set_nonblocking(true).is_err() {
            return true;
        }
        let peeked = self.writer.peek(&mut [0u8; 1]);
        let restored = self.writer.set_nonblocking(false).is_ok();
        let idle = matches!(&peeked, Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        !(restored && idle)
    }

    /// Sends one request and reads its response, retrying per
    /// [`Client::with_retry`] when configured.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.request_once(req);
            let Some(policy) = self.retry else { return outcome };
            let retryable = match &outcome {
                Err(ClientError::Io(e)) => transient(e),
                Ok(Response::Err { code, .. }) => code.retryable(),
                _ => false,
            };
            if !retryable || attempt >= policy.attempts {
                return outcome;
            }
            std::thread::sleep(Duration::from_millis(
                policy.base_ms.saturating_mul(1u64 << attempt.min(10)),
            ));
            if matches!(&outcome, Err(ClientError::Io(_))) {
                // The connection is suspect; a fresh dial also covers the
                // refused-connect window of a restarting server. Connect
                // failures are themselves retryable.
                if let Err(e) = self.reconnect() {
                    if !transient(&e) || attempt + 1 >= policy.attempts {
                        return Err(ClientError::Io(e));
                    }
                }
            }
            attempt += 1;
        }
    }

    /// One request/response round trip on the current connection.
    fn request_once(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.writer.write_all(encode_frame(&req.to_value()).as_bytes())?;
        self.writer.flush()?;
        loop {
            match self.reader.read_frame()? {
                Frame::Eof => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-request",
                    )))
                }
                Frame::Oversized => {
                    return Err(ClientError::Protocol(ProtocolError::new(
                        ErrorCode::FrameTooLarge,
                        "response frame exceeded the client-side cap",
                    )))
                }
                Frame::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let value: Value = serde_json::from_str(&line).map_err(|e| {
                        ClientError::Protocol(ProtocolError::new(
                            ErrorCode::BadFrame,
                            format!("unparsable response: {e}"),
                        ))
                    })?;
                    return Ok(Response::from_value(&value)?);
                }
            }
        }
    }

    /// Sends one request, mapping error responses to [`ClientError::Server`].
    pub fn call(&mut self, req: &Request) -> Result<Value, ClientError> {
        match self.request(req)? {
            Response::Ok(v) => Ok(v),
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
        }
    }

    /// Health check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Ping).map(|_| ())
    }

    /// Creates a session from a group document and a rules DSL string,
    /// returning its id.
    pub fn create_session(&mut self, group: &Value, rules: &str) -> Result<u64, ClientError> {
        let v =
            self.call(&Request::CreateSession { group: group.clone(), rules: rules.to_string() })?;
        v.get("session").and_then(Value::as_u64).ok_or_else(|| {
            ClientError::Protocol(ProtocolError::new(
                ErrorCode::BadFrame,
                "create_session reply carries no session id",
            ))
        })
    }

    /// Appends entity rows, returning the assigned ids.
    pub fn add_entities(
        &mut self,
        session: u64,
        entities: &[Value],
    ) -> Result<Vec<usize>, ClientError> {
        let v = self.call(&Request::AddEntities { session, entities: entities.to_vec() })?;
        let ids = v.get("ids").and_then(Value::as_array).ok_or_else(|| {
            ClientError::Protocol(ProtocolError::new(
                ErrorCode::BadFrame,
                "add_entities reply carries no ids",
            ))
        })?;
        Ok(ids.iter().filter_map(Value::as_u64).map(|id| id as usize).collect())
    }

    /// Removes one entity by id.
    pub fn remove_entity(&mut self, session: u64, entity: usize) -> Result<Value, ClientError> {
        self.call(&Request::RemoveEntity { session, entity })
    }

    /// Runs discovery, returning the full report.
    pub fn discovery(&mut self, session: u64) -> Result<Value, ClientError> {
        self.call(&Request::Discovery { session })
    }

    /// Runs discovery, returning one scrollbar step.
    pub fn scrollbar(&mut self, session: u64, step: usize) -> Result<Value, ClientError> {
        self.call(&Request::Scrollbar { session, step })
    }

    /// Fetches global (`None`) or per-session counters.
    pub fn stats(&mut self, session: Option<u64>) -> Result<Value, ClientError> {
        self.call(&Request::Stats { session })
    }

    /// Fetches the server's engine trace report: phase timings, engine
    /// counters, per-rule hits, and latency histograms.
    pub fn trace(&mut self) -> Result<Value, ClientError> {
        self.call(&Request::Trace)
    }

    /// Installs a rulespec program as the session's new rule set.
    /// Semantic-analysis warnings ride back in the OK payload.
    pub fn rules_install(&mut self, session: u64, spec: &str) -> Result<Value, ClientError> {
        self.rules_install_opts(session, spec, false)
    }

    /// Installs a rulespec with explicit strictness: under `strict`, any
    /// semantic finding (same/diff conflict, subsumed rule,
    /// unsatisfiable threshold) rejects the install with `rule_rejected`
    /// instead of installing with warnings.
    pub fn rules_install_opts(
        &mut self,
        session: u64,
        spec: &str,
        strict: bool,
    ) -> Result<Value, ClientError> {
        self.call(&Request::Rules {
            session,
            action: RuleAction::Install { spec: spec.to_string(), strict },
        })
    }

    /// Removes one rule by polarity and index.
    pub fn rules_ablate(
        &mut self,
        session: u64,
        polarity: Polarity,
        index: usize,
    ) -> Result<Value, ClientError> {
        self.call(&Request::Rules { session, action: RuleAction::Ablate { polarity, index } })
    }

    /// Lists the session's rules as canonical rulespec text.
    pub fn rules_list(&mut self, session: u64) -> Result<Value, ClientError> {
        self.call(&Request::Rules { session, action: RuleAction::List })
    }

    /// Submits `(entity, belongs)` verdicts and fetches the refined
    /// rulespec; with `apply` the refinement is installed in the same
    /// call.
    pub fn feedback(
        &mut self,
        session: u64,
        labels: &[(usize, bool)],
        apply: bool,
    ) -> Result<Value, ClientError> {
        self.call(&Request::Feedback { session, labels: labels.to_vec(), apply })
    }

    /// Drops a session.
    pub fn close_session(&mut self, session: u64) -> Result<Value, ClientError> {
        self.call(&Request::CloseSession { session })
    }

    /// Asks the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.call(&Request::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};
    use std::net::TcpListener;

    #[test]
    fn transient_covers_connection_failures_only() {
        for kind in [
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            assert!(transient(&io::Error::new(kind, "x")), "{kind:?} must be transient");
        }
        assert!(!transient(&io::Error::new(io::ErrorKind::PermissionDenied, "x")));
        assert!(!transient(&io::Error::new(io::ErrorKind::InvalidData, "x")));
    }

    /// A server that drops its first connection unanswered, then serves a
    /// ping on the second: `with_retry` must reconnect and succeed where
    /// a plain client surfaces the EOF.
    #[test]
    fn retry_reconnects_across_a_dropped_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (first, _) = listener.accept().expect("accept first");
            drop(first); // simulate a primary dying mid-request
            let (mut second, _) = listener.accept().expect("accept second");
            let mut line = String::new();
            std::io::BufReader::new(second.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("read request");
            second.write_all(b"{\"ok\":{\"pong\":true}}\n").expect("write response");
        });

        let mut client = Client::connect(addr).expect("connect").with_retry(3, 1);
        client.ping().expect("retrying ping must survive the dropped connection");
        server.join().expect("server thread");
    }

    /// A server that answers the first request with a retryable
    /// `overloaded` error and the second with a pong, on the same
    /// connection: `with_retry` must back off and resend — the
    /// admission queue's backpressure error needs zero client changes.
    #[test]
    fn retry_resends_after_an_overloaded_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("first request");
            conn.write_all(
                b"{\"err\":{\"code\":\"overloaded\",\
                  \"message\":\"verify queue is full; retry after backoff\"}}\n",
            )
            .expect("write overloaded");
            line.clear();
            reader.read_line(&mut line).expect("resent request");
            conn.write_all(b"{\"ok\":{\"pong\":true}}\n").expect("write pong");
        });

        let mut client = Client::connect(addr).expect("connect").with_retry(3, 1);
        client.ping().expect("retrying ping must survive a transient overloaded error");
        server.join().expect("server thread");
    }

    #[test]
    fn without_retry_a_dropped_connection_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (first, _) = listener.accept().expect("accept");
            drop(first);
        });
        let mut client = Client::connect(addr).expect("connect");
        match client.ping() {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected an IO error, got {other:?}"),
        }
        server.join().expect("server thread");
    }
}
