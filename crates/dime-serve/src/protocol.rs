//! The wire protocol of the discovery service: newline-delimited JSON
//! frames over TCP, one request or response object per line.
//!
//! A request is a JSON object whose `"op"` field selects the operation:
//!
//! | op               | fields                         | reply data                      |
//! |------------------|--------------------------------|---------------------------------|
//! | `ping`           | —                              | `{"pong": true}`                |
//! | `create_session` | `group` (doc), `rules` (DSL)   | `{"session": id, "entities": n}`|
//! | `add_entities`   | `session`, `entities` (rows)   | `{"ids": [...], "entities": n}` |
//! | `remove_entity`  | `session`, `entity`            | `{"removed": id, "entities": n}`|
//! | `discovery`      | `session`                      | full discovery report           |
//! | `scrollbar`      | `session`, `step`              | one scrollbar step              |
//! | `stats`          | optional `session`             | counters                        |
//! | `trace`          | —                              | engine trace report             |
//! | `rules`          | `session`, `action`, ...       | rule-set summary / spec text    |
//! | `feedback`       | `session`, `labels`, `apply`   | refined rulespec + coverage     |
//! | `close_session`  | `session`                      | `{"closed": id}`                |
//! | `shutdown`       | —                              | `{"shutting_down": true}`       |
//!
//! `group` uses the same document format as `dime_data::load_group_json`
//! (schema + optional ontologies + optional initial entities); `rules` is
//! the textual DSL of `dime_core::parse_rules`. Entity rows are arrays in
//! schema order or objects keyed by attribute name.
//!
//! The `rules` op manages a session's live rule set: `action` is
//! `"install"` (with `spec`, a `dime-rulespec` program), `"ablate"` (with
//! `polarity` and `index`), or `"list"`. The `feedback` op carries
//! `labels`, an array of `[entity, belongs]` pairs, plus an optional
//! boolean `apply`; the server answers with a refined rulespec the client
//! can diff against the listed one.
//!
//! A response is `{"ok": <data>}` or
//! `{"err": {"code": "...", "message": "..."}}`. Error codes are the
//! machine-readable [`ErrorCode`] set; messages are human-readable and not
//! part of the stable surface.
//!
//! Framing is the [`JsonLines`] codec, which enforces a maximum frame
//! size *while* reading — an oversized line is discarded (up to its
//! newline) and surfaced as [`Split::Oversized`] so a server can answer
//! with a structured error instead of buffering without bound or killing
//! the connection. Clients read it through the blocking [`FrameReader`].

use crate::pool::{Codec, Reject, Split};
use dime_core::Polarity;
use serde_json::{json, Value};
use std::fmt;
use std::io::{self, BufRead};

/// Default cap on a single frame (request or response line), in bytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Machine-readable error codes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not a valid JSON object.
    BadFrame,
    /// The frame exceeded the server's maximum frame size.
    FrameTooLarge,
    /// The `"op"` field named no known operation.
    UnknownOp,
    /// The request was structurally invalid (missing/ill-typed fields,
    /// unparsable group or rules, out-of-range step, ...).
    BadRequest,
    /// The named session does not exist (never created, or closed).
    NoSuchSession,
    /// The named entity does not exist in the session.
    NoSuchEntity,
    /// Discovery was requested on a session with no entities.
    EmptyGroup,
    /// The request carried more entities than the admission limit allows.
    TooManyEntities,
    /// The server is at its session-count limit.
    TooManySessions,
    /// The server is draining for shutdown and accepts no new sessions.
    ShuttingDown,
    /// The owning backend is temporarily unreachable (a cluster router's
    /// shard is mid-failover). Retryable: the same request can succeed
    /// once a replacement primary is serving.
    Unavailable,
    /// The server failed internally (e.g. a panicking handler).
    Internal,
    /// The admission queue is full: the server is up but saturated. The
    /// request was not admitted; retrying after backoff is safe and is
    /// what [`crate::Client`] does under its retry policy.
    Overloaded,
    /// A `rules` install or ablate was rejected: the spec failed to
    /// compile against the session's schema, the set would lose a
    /// polarity, or validation found a rule that fires on every sampled
    /// pair. The message carries the `file:line:col` diagnostic or the
    /// validation verdict.
    RuleRejected,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NoSuchSession => "no_such_session",
            ErrorCode::NoSuchEntity => "no_such_entity",
            ErrorCode::EmptyGroup => "empty_group",
            ErrorCode::TooManyEntities => "too_many_entities",
            ErrorCode::TooManySessions => "too_many_sessions",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Internal => "internal",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::RuleRejected => "rule_rejected",
        }
    }

    /// Whether a request failing with this code may succeed verbatim on a
    /// retry (the failure is about the service's current state, not about
    /// the request itself).
    pub fn retryable(self) -> bool {
        matches!(self, ErrorCode::Unavailable | ErrorCode::Overloaded)
    }

    /// Parses a wire spelling back into a code.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|code| code.as_str() == s)
    }

    /// Every code: the parse table, and the list round-trip tests walk.
    pub const ALL: [ErrorCode; 14] = [
        ErrorCode::BadFrame,
        ErrorCode::FrameTooLarge,
        ErrorCode::UnknownOp,
        ErrorCode::BadRequest,
        ErrorCode::NoSuchSession,
        ErrorCode::NoSuchEntity,
        ErrorCode::EmptyGroup,
        ErrorCode::TooManyEntities,
        ErrorCode::TooManySessions,
        ErrorCode::ShuttingDown,
        ErrorCode::Unavailable,
        ErrorCode::Internal,
        ErrorCode::Overloaded,
        ErrorCode::RuleRejected,
    ];
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured protocol failure: the code to answer with plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The machine-readable code.
    pub code: ErrorCode,
    /// The human-readable description.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self { code, message: message.into() }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn bad(message: impl Into<String>) -> ProtocolError {
    ProtocolError::new(ErrorCode::BadRequest, message)
}

/// One rule-management action of the `rules` op.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleAction {
    /// Replaces the session's whole rule set with a compiled rulespec
    /// program (`dime-rulespec` syntax). The install is atomic: a spec
    /// that fails compilation or validation changes nothing.
    Install {
        /// The rulespec source text.
        spec: String,
        /// With `strict`, semantic-analysis findings (same/diff
        /// conflicts, subsumed rules, unsatisfiable thresholds) reject
        /// the install with `rule_rejected`; without it they come back
        /// as warnings in the OK payload. Optional on the wire,
        /// defaulting to `false`, so older clients are unaffected.
        strict: bool,
    },
    /// Removes one rule, keeping at least one rule of each polarity.
    Ablate {
        /// Which rule list to remove from.
        polarity: Polarity,
        /// 0-based index into that polarity's list.
        index: usize,
    },
    /// Returns the session's current rules as canonical rulespec text.
    List,
}

/// A request of the discovery service.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Health check.
    Ping,
    /// Creates a session from a group document and a rules DSL string.
    CreateSession {
        /// The group document (`dime_data::load_group_json` format).
        group: Value,
        /// The rule set in the textual DSL, at least one positive and one
        /// negative rule.
        rules: String,
    },
    /// Appends entities (rows in schema order or keyed objects).
    AddEntities {
        /// Target session id.
        session: u64,
        /// The entity rows.
        entities: Vec<Value>,
    },
    /// Removes one entity by id (later ids shift down by one).
    RemoveEntity {
        /// Target session id.
        session: u64,
        /// The entity id to remove.
        entity: usize,
    },
    /// Runs discovery and returns the full report.
    Discovery {
        /// Target session id.
        session: u64,
    },
    /// Runs discovery and returns a single scrollbar step.
    Scrollbar {
        /// Target session id.
        session: u64,
        /// 0-based scrollbar position (negative rules `0..=step` enabled).
        step: usize,
    },
    /// Returns global counters, or one session's counters.
    Stats {
        /// Restrict to one session when set.
        session: Option<u64>,
    },
    /// Returns the server's engine trace report: per-phase timings,
    /// counters, per-rule hit counts, and latency histograms aggregated
    /// across every session's engine.
    Trace,
    /// Manages a session's live rule set: install a rulespec, ablate one
    /// rule, or list the current set.
    Rules {
        /// Target session id.
        session: u64,
        /// What to do with the session's rules.
        action: RuleAction,
    },
    /// Submits labeled `(entity, belongs)` verdicts and asks for a
    /// refined rulespec covering the residual examples the current rules
    /// miss. With `apply`, the refined set is also installed.
    Feedback {
        /// Target session id.
        session: u64,
        /// `(entity id, belongs-in-this-group)` verdicts; they accumulate
        /// across calls, later verdicts for an entity winning.
        labels: Vec<(usize, bool)>,
        /// Install the refined rule set in the same call.
        apply: bool,
    },
    /// Drops a session and frees its state.
    CloseSession {
        /// Target session id.
        session: u64,
    },
    /// Asks the server to drain in-flight work and stop.
    Shutdown,
}

impl Request {
    /// The wire spelling of this request's operation.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::CreateSession { .. } => "create_session",
            Request::AddEntities { .. } => "add_entities",
            Request::RemoveEntity { .. } => "remove_entity",
            Request::Discovery { .. } => "discovery",
            Request::Scrollbar { .. } => "scrollbar",
            Request::Stats { .. } => "stats",
            Request::Trace => "trace",
            Request::Rules { .. } => "rules",
            Request::Feedback { .. } => "feedback",
            Request::CloseSession { .. } => "close_session",
            Request::Shutdown => "shutdown",
        }
    }

    /// Encodes the request as a JSON value.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Ping => json!({"op": "ping"}),
            Request::CreateSession { group, rules } => {
                json!({"op": "create_session", "group": group, "rules": rules})
            }
            Request::AddEntities { session, entities } => {
                json!({"op": "add_entities", "session": session, "entities": entities})
            }
            Request::RemoveEntity { session, entity } => {
                json!({"op": "remove_entity", "session": session, "entity": entity})
            }
            Request::Discovery { session } => json!({"op": "discovery", "session": session}),
            Request::Scrollbar { session, step } => {
                json!({"op": "scrollbar", "session": session, "step": step})
            }
            Request::Stats { session: Some(s) } => json!({"op": "stats", "session": s}),
            Request::Stats { session: None } => json!({"op": "stats"}),
            Request::Trace => json!({"op": "trace"}),
            Request::Rules { session, action } => match action {
                RuleAction::Install { spec, strict: false } => {
                    json!({"op": "rules", "session": session, "action": "install", "spec": spec})
                }
                RuleAction::Install { spec, strict: true } => json!({
                    "op": "rules",
                    "session": session,
                    "action": "install",
                    "spec": spec,
                    "strict": true,
                }),
                RuleAction::Ablate { polarity, index } => json!({
                    "op": "rules",
                    "session": session,
                    "action": "ablate",
                    "polarity": polarity_str(*polarity),
                    "index": index,
                }),
                RuleAction::List => {
                    json!({"op": "rules", "session": session, "action": "list"})
                }
            },
            Request::Feedback { session, labels, apply } => json!({
                "op": "feedback",
                "session": session,
                "labels": labels
                    .iter()
                    .map(|(e, b)| json!([e, b]))
                    .collect::<Vec<_>>(),
                "apply": apply,
            }),
            Request::CloseSession { session } => {
                json!({"op": "close_session", "session": session})
            }
            Request::Shutdown => json!({"op": "shutdown"}),
        }
    }

    /// Decodes a request from a JSON value, with structured errors for
    /// unknown operations and missing/ill-typed fields.
    pub fn from_value(value: &Value) -> Result<Self, ProtocolError> {
        let obj = value.as_object().ok_or_else(|| bad("request must be a JSON object"))?;
        let op = match obj.get("op") {
            Some(v) => v.as_str().ok_or_else(|| bad("\"op\" must be a string"))?,
            None => return Err(bad("missing \"op\" field")),
        };
        Ok(match op {
            "ping" => Request::Ping,
            "create_session" => Request::CreateSession {
                group: need(obj, "create_session", "group")?.clone(),
                rules: need_str(obj, "create_session", "rules")?.to_string(),
            },
            "add_entities" => Request::AddEntities {
                session: need_u64(obj, "add_entities", "session")?,
                entities: need(obj, "add_entities", "entities")?
                    .as_array()
                    .ok_or_else(|| bad("add_entities: \"entities\" must be an array"))?
                    .clone(),
            },
            "remove_entity" => Request::RemoveEntity {
                session: need_u64(obj, "remove_entity", "session")?,
                entity: need_u64(obj, "remove_entity", "entity")? as usize,
            },
            "discovery" => Request::Discovery { session: need_u64(obj, "discovery", "session")? },
            "scrollbar" => Request::Scrollbar {
                session: need_u64(obj, "scrollbar", "session")?,
                step: need_u64(obj, "scrollbar", "step")? as usize,
            },
            "stats" => Request::Stats {
                session: match obj.get("session") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or_else(|| bad("stats: \"session\" must be an unsigned integer"))?,
                    ),
                },
            },
            "trace" => Request::Trace,
            "rules" => Request::Rules {
                session: need_u64(obj, "rules", "session")?,
                action: match need_str(obj, "rules", "action")? {
                    "install" => RuleAction::Install {
                        spec: need_str(obj, "rules", "spec")?.to_string(),
                        strict: match obj.get("strict") {
                            None | Some(Value::Null) => false,
                            Some(v) => v
                                .as_bool()
                                .ok_or_else(|| bad("rules: \"strict\" must be a boolean"))?,
                        },
                    },
                    "ablate" => RuleAction::Ablate {
                        polarity: match need_str(obj, "rules", "polarity")? {
                            "positive" => Polarity::Positive,
                            "negative" => Polarity::Negative,
                            other => {
                                return Err(bad(format!(
                                    "rules: unknown polarity {other:?} (use positive|negative)"
                                )))
                            }
                        },
                        index: need_u64(obj, "rules", "index")? as usize,
                    },
                    "list" => RuleAction::List,
                    other => {
                        return Err(bad(format!(
                            "rules: unknown action {other:?} (use install|ablate|list)"
                        )))
                    }
                },
            },
            "feedback" => {
                let raw = need(obj, "feedback", "labels")?
                    .as_array()
                    .ok_or_else(|| bad("feedback: \"labels\" must be an array"))?;
                let mut labels = Vec::with_capacity(raw.len());
                for (i, l) in raw.iter().enumerate() {
                    let pair = l.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                        bad(format!("feedback: label {i} must be an [entity, belongs] pair"))
                    })?;
                    let entity = pair.first().and_then(Value::as_u64).ok_or_else(|| {
                        bad(format!("feedback: label {i}: entity must be an unsigned integer"))
                    })? as usize;
                    let belongs = pair.get(1).and_then(Value::as_bool).ok_or_else(|| {
                        bad(format!("feedback: label {i}: belongs must be a boolean"))
                    })?;
                    labels.push((entity, belongs));
                }
                Request::Feedback {
                    session: need_u64(obj, "feedback", "session")?,
                    labels,
                    apply: match obj.get("apply") {
                        None | Some(Value::Null) => false,
                        Some(v) => v
                            .as_bool()
                            .ok_or_else(|| bad("feedback: \"apply\" must be a boolean"))?,
                    },
                }
            }
            "close_session" => {
                Request::CloseSession { session: need_u64(obj, "close_session", "session")? }
            }
            "shutdown" => Request::Shutdown,
            other => {
                return Err(ProtocolError::new(
                    ErrorCode::UnknownOp,
                    format!("unknown op {other:?}"),
                ))
            }
        })
    }
}

/// The wire spelling of a rule polarity.
pub fn polarity_str(p: Polarity) -> &'static str {
    match p {
        Polarity::Positive => "positive",
        Polarity::Negative => "negative",
    }
}

fn need<'a>(
    obj: &'a serde_json::Map<String, Value>,
    op: &str,
    key: &str,
) -> Result<&'a Value, ProtocolError> {
    obj.get(key).ok_or_else(|| bad(format!("{op}: missing \"{key}\" field")))
}

fn need_str<'a>(
    obj: &'a serde_json::Map<String, Value>,
    op: &str,
    key: &str,
) -> Result<&'a str, ProtocolError> {
    need(obj, op, key)?.as_str().ok_or_else(|| bad(format!("{op}: \"{key}\" must be a string")))
}

fn need_u64(
    obj: &serde_json::Map<String, Value>,
    op: &str,
    key: &str,
) -> Result<u64, ProtocolError> {
    need(obj, op, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("{op}: \"{key}\" must be an unsigned integer")))
}

/// A response of the discovery service.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success, with the operation-specific payload.
    Ok(Value),
    /// Failure, with a machine-readable code and a human-readable message.
    Err {
        /// The machine-readable code.
        code: ErrorCode,
        /// The human-readable description.
        message: String,
    },
}

impl Response {
    /// Builds an error response.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Self {
        Response::Err { code, message: message.into() }
    }

    /// Whether this is a success response.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok(_))
    }

    /// Encodes the response as a JSON value.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Ok(data) => json!({"ok": data}),
            Response::Err { code, message } => {
                json!({"err": {"code": code.as_str(), "message": message}})
            }
        }
    }

    /// Decodes a response from a JSON value.
    pub fn from_value(value: &Value) -> Result<Self, ProtocolError> {
        let obj = value.as_object().ok_or_else(|| bad("response must be a JSON object"))?;
        if let Some(data) = obj.get("ok") {
            return Ok(Response::Ok(data.clone()));
        }
        let err = obj
            .get("err")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("response must carry \"ok\" or an \"err\" object"))?;
        let code = err
            .get("code")
            .and_then(Value::as_str)
            .and_then(ErrorCode::parse)
            .ok_or_else(|| bad("error response carries no known \"code\""))?;
        let message = err.get("message").and_then(Value::as_str).unwrap_or_default().to_string();
        Ok(Response::Err { code, message })
    }
}

/// Encodes one value as a wire frame: compact JSON plus the terminating
/// newline. Compact JSON never contains a raw newline (control characters
/// inside strings are escaped), so framing is unambiguous.
pub fn encode_frame(value: &Value) -> String {
    let mut s = serde_json::to_string(value).unwrap_or_else(|_| {
        r#"{"err":{"code":"internal","message":"response encoding failed"}}"#.to_string()
    });
    s.push('\n');
    s
}

/// One framing outcome from [`FrameReader::read_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// The peer closed the connection (no partial frame pending).
    Eof,
    /// One complete line (without its newline).
    Line(String),
    /// A line exceeded the frame cap; it was discarded up to its newline
    /// and the stream is re-synchronized for the next frame.
    Oversized,
}

/// The JSON-lines wire format as a [`Codec`]: one compact JSON value per
/// newline-terminated line, capped at `max_frame_bytes`. An over-cap line
/// is dropped up to its newline and answered `frame_too_large`, a blank
/// line asks nothing, a CRLF peer is tolerated, and a trailing
/// unterminated line still counts at end of stream.
#[derive(Debug, Clone, Copy)]
pub struct JsonLines {
    /// Cap on one line, its terminator excluded.
    pub max_frame_bytes: usize,
}

/// One JSON-lines stream's framing state.
#[derive(Debug, Default)]
pub struct LineFraming {
    /// Leading bytes of the buffer already known to hold no newline.
    scanned: usize,
    /// Inside an over-cap line, dropping bytes up to its newline.
    discarding: bool,
}

/// A line's bytes without its `\n` or `\r\n` terminator.
fn line_of(frame: &[u8]) -> &[u8] {
    let line = frame.strip_suffix(b"\n").unwrap_or(frame);
    line.strip_suffix(b"\r").unwrap_or(line)
}

impl Codec for JsonLines {
    type Request = Request;
    type Response = Response;
    type Framing = LineFraming;

    fn split(&self, framing: &mut LineFraming, buf: &[u8], eof: bool) -> Split {
        let from = framing.scanned.min(buf.len());
        let end = match buf.get(from..).and_then(|tail| tail.iter().position(|&b| b == b'\n')) {
            Some(at) => from + at,
            None if eof && (framing.discarding || !buf.is_empty()) => buf.len(),
            None if !buf.is_empty() && (framing.discarding || buf.len() > self.max_frame_bytes) => {
                *framing = LineFraming { scanned: 0, discarding: true };
                return Split::Skip(buf.len());
            }
            None => {
                framing.scanned = buf.len();
                return Split::Partial;
            }
        };
        let oversized = framing.discarding || end > self.max_frame_bytes;
        *framing = LineFraming::default();
        let n = (end + 1).min(buf.len());
        if oversized {
            Split::Oversized(n)
        } else {
            Split::Frame(n)
        }
    }

    fn decode(&self, frame: &[u8]) -> Option<Result<Request, Response>> {
        let line = String::from_utf8_lossy(line_of(frame));
        if line.trim().is_empty() {
            return None;
        }
        Some(match serde_json::from_str::<Value>(&line) {
            Ok(value) => Request::from_value(&value).map_err(|e| Response::err(e.code, e.message)),
            Err(e) => Err(Response::err(ErrorCode::BadFrame, format!("invalid JSON: {e}"))),
        })
    }

    fn reject(&self, why: Reject) -> Response {
        let cap = self.max_frame_bytes;
        let (code, message) = match why {
            Reject::Oversized => (ErrorCode::FrameTooLarge, format!("frame exceeds {cap} bytes")),
            Reject::Overloaded => {
                (ErrorCode::Overloaded, "verify queue is full; retry after backoff".into())
            }
            Reject::Panicked => (ErrorCode::Internal, "request handler panicked".into()),
        };
        Response::err(code, message)
    }

    fn encode(&self, resp: &Response) -> Option<Vec<u8>> {
        Some(encode_frame(&resp.to_value()).into_bytes())
    }

    fn is_error(&self, resp: &Response) -> bool {
        !resp.is_ok()
    }

    fn is_shutdown(&self, req: &Request) -> bool {
        matches!(req, Request::Shutdown)
    }
}

/// A blocking reader of [`JsonLines`] frames, for clients: the codec's
/// framing over a [`BufRead`], so an over-cap line is dropped up to its
/// newline and reported as [`Frame::Oversized`] — the connection stays
/// usable. Partial frames survive read timeouts (`WouldBlock`/`TimedOut`
/// are returned to the caller with all buffered bytes retained).
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    codec: JsonLines,
    framing: LineFraming,
    buf: Vec<u8>,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps a buffered reader with the given per-frame cap.
    pub fn new(inner: R, max_bytes: usize) -> Self {
        let codec = JsonLines { max_frame_bytes: max_bytes };
        Self { inner, codec, framing: LineFraming::default(), buf: Vec::new() }
    }

    /// Reads the next frame. `WouldBlock`/`TimedOut` IO errors surface as
    /// `Err` with the partial frame retained; call again to resume.
    pub fn read_frame(&mut self) -> io::Result<Frame> {
        let mut eof = false;
        loop {
            let (n, frame) = match self.codec.split(&mut self.framing, &self.buf, eof) {
                Split::Partial if eof => return Ok(Frame::Eof),
                Split::Corrupt => return Err(io::ErrorKind::InvalidData.into()),
                Split::Partial => {
                    let chunk = match self.inner.fill_buf() {
                        Ok(chunk) => chunk,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    };
                    let n = chunk.len();
                    eof = n == 0;
                    self.buf.extend_from_slice(chunk);
                    self.inner.consume(n);
                    continue;
                }
                Split::Skip(n) => (n, None),
                Split::Oversized(n) => (n, Some(Frame::Oversized)),
                Split::Frame(n) => {
                    let line = self.buf.get(..n).map(line_of).unwrap_or_default();
                    (n, Some(Frame::Line(String::from_utf8_lossy(line).into_owned())))
                }
            };
            self.buf.drain(..n.min(self.buf.len()));
            if let Some(frame) = frame {
                return Ok(frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let line = encode_frame(&req.to_value());
        let value: Value = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(&Request::from_value(&value).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::CreateSession {
            group: json!({"schema": [{"name": "A"}], "entities": []}),
            rules: "positive: overlap(A) >= 1\nnegative: overlap(A) <= 0".into(),
        });
        roundtrip_request(&Request::AddEntities {
            session: 7,
            entities: vec![json!(["x"]), json!({"A": "y"})],
        });
        roundtrip_request(&Request::RemoveEntity { session: 7, entity: 3 });
        roundtrip_request(&Request::Discovery { session: 1 });
        roundtrip_request(&Request::Scrollbar { session: 1, step: 2 });
        roundtrip_request(&Request::Stats { session: None });
        roundtrip_request(&Request::Stats { session: Some(4) });
        roundtrip_request(&Request::Trace);
        roundtrip_request(&Request::Rules {
            session: 7,
            action: RuleAction::Install {
                spec: "same(X, Y) :- overlap(A) >= 2.".into(),
                strict: false,
            },
        });
        roundtrip_request(&Request::Rules {
            session: 7,
            action: RuleAction::Ablate { polarity: Polarity::Positive, index: 1 },
        });
        roundtrip_request(&Request::Rules {
            session: 7,
            action: RuleAction::Ablate { polarity: Polarity::Negative, index: 0 },
        });
        roundtrip_request(&Request::Rules { session: 7, action: RuleAction::List });
        roundtrip_request(&Request::Feedback {
            session: 7,
            labels: vec![(0, true), (3, false)],
            apply: true,
        });
        roundtrip_request(&Request::Feedback { session: 7, labels: vec![], apply: false });
    }

    #[test]
    fn rules_requests_reject_bad_shapes() {
        let e = Request::from_value(&json!({"op": "rules", "session": 1, "action": "explode"}))
            .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = Request::from_value(&json!({
            "op": "rules", "session": 1, "action": "ablate", "polarity": "sideways", "index": 0
        }))
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = Request::from_value(&json!({"op": "rules", "session": 1, "action": "install"}))
            .unwrap_err();
        assert!(e.message.contains("spec"), "{e}");
        let e = Request::from_value(&json!({
            "op": "feedback", "session": 1, "labels": [[0, true], [1]]
        }))
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = Request::from_value(&json!({
            "op": "feedback", "session": 1, "labels": [[0, "yes"]]
        }))
        .unwrap_err();
        assert!(e.message.contains("boolean"), "{e}");
    }

    #[test]
    fn feedback_apply_defaults_to_false() {
        let req =
            Request::from_value(&json!({"op": "feedback", "session": 2, "labels": [[5, false]]}))
                .unwrap();
        assert_eq!(req, Request::Feedback { session: 2, labels: vec![(5, false)], apply: false });
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Ok(json!({"pong": true})),
            Response::Ok(Value::Null),
            Response::err(ErrorCode::NoSuchSession, "session 9 does not exist"),
        ] {
            let line = encode_frame(&resp.to_value());
            let value: Value = serde_json::from_str(line.trim_end()).unwrap();
            assert_eq!(Response::from_value(&value).unwrap(), resp);
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("sorcery"), None);
    }

    #[test]
    fn unknown_op_and_missing_fields_are_structured() {
        let e = Request::from_value(&json!({"op": "sorcery"})).unwrap_err();
        assert_eq!(e.code, ErrorCode::UnknownOp);
        let e = Request::from_value(&json!({"op": "discovery"})).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = Request::from_value(&json!({"op": "discovery", "session": "one"})).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = Request::from_value(&json!([1, 2])).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = Request::from_value(&json!({"session": 1})).unwrap_err();
        assert!(e.message.contains("op"), "{e}");
    }

    #[test]
    fn frame_reader_splits_lines() {
        let data = b"{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\nrest-without-newline";
        let mut r = FrameReader::new(&data[..], 1 << 10);
        assert_eq!(r.read_frame().unwrap(), Frame::Line("{\"op\":\"ping\"}".into()));
        assert_eq!(r.read_frame().unwrap(), Frame::Line("{\"op\":\"shutdown\"}".into()));
        assert_eq!(r.read_frame().unwrap(), Frame::Line("rest-without-newline".into()));
        assert_eq!(r.read_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn frame_reader_discards_oversized_lines_and_resyncs() {
        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut r = FrameReader::new(&data[..], 16);
        assert_eq!(r.read_frame().unwrap(), Frame::Oversized);
        assert_eq!(r.read_frame().unwrap(), Frame::Line("ok".into()));
        assert_eq!(r.read_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn frame_reader_oversized_at_eof() {
        let data = [b'x'; 64];
        let mut r = FrameReader::new(&data[..], 16);
        assert_eq!(r.read_frame().unwrap(), Frame::Oversized);
        assert_eq!(r.read_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn frame_reader_strips_carriage_returns() {
        let data = b"{\"op\":\"ping\"}\r\n";
        let mut r = FrameReader::new(&data[..], 1 << 10);
        assert_eq!(r.read_frame().unwrap(), Frame::Line("{\"op\":\"ping\"}".into()));
    }

    #[test]
    fn encode_frame_is_single_line() {
        let v = json!({"text": "line one\nline two", "n": 3});
        let frame = encode_frame(&v);
        assert_eq!(frame.matches('\n').count(), 1);
        assert!(frame.ends_with('\n'));
    }
}
