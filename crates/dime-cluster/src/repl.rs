//! The replication wire: CRC-framed binary messages over TCP, reusing
//! `dime-store`'s `[u32 len][u32 crc][payload]` frame codec so a record
//! streamed from a primary re-enters the follower's WAL byte-for-byte.
//!
//! Message payloads are `[u8 tag][fields]`:
//!
//! | tag | message      | fields                                    |
//! |-----|--------------|-------------------------------------------|
//! | 1   | `record`     | `u64` session, raw WAL record payload     |
//! | 2   | `ack`        | `u64` session, `u64` seq                  |
//! | 3   | `promote`    | —                                         |
//! | 4   | `promote_ack`| UTF-8 serve address of the new primary    |
//!
//! Replication is synchronous: the primary's [`FollowerLink`] writes one
//! `record` and blocks for the matching `ack` before the WAL append
//! returns. The follower sends the ack only after its own
//! `SessionWal::append_raw` returned — which, under `--fsync always`,
//! means the record is fsynced on the follower. That ordering is the
//! promotion invariant: a follower never acknowledges a sequence number
//! it could lose. The primary's link and the router's promote exchange
//! do blocking IO; the follower serves its sockets on the poll loop
//! through [`ReplCodec`].

use dime_serve::session::lock;
use dime_serve::{Codec, Reject, Split};
use dime_store::{
    decode_record, read_frame, write_frame, FrameRead, FRAME_HEADER_BYTES, MAX_PAYLOAD_BYTES,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

const TAG_RECORD: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_PROMOTE: u8 = 3;
const TAG_PROMOTE_ACK: u8 = 4;

/// One replication message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplFrame {
    /// A committed WAL record of `session`, as the exact encoded
    /// `[seq|tag|fields]` payload the primary framed into its own log.
    Record {
        /// The session the record belongs to.
        session: u64,
        /// The raw record payload.
        payload: Vec<u8>,
    },
    /// The follower's durable acknowledgement of `seq`.
    Ack {
        /// The acknowledged session.
        session: u64,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Order from the router: replay your logs and start serving.
    Promote,
    /// The promoted server is up at `addr`.
    PromoteAck {
        /// The serve address clients (the router) should use now.
        addr: String,
    },
}

impl ReplFrame {
    /// Encodes the message payload (tag + fields, without the frame
    /// header).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ReplFrame::Record { session, payload } => {
                [[TAG_RECORD].as_slice(), &session.to_le_bytes(), payload].concat()
            }
            ReplFrame::Ack { session, seq } => {
                [[TAG_ACK].as_slice(), &session.to_le_bytes(), &seq.to_le_bytes()].concat()
            }
            ReplFrame::Promote => vec![TAG_PROMOTE],
            ReplFrame::PromoteAck { addr } => {
                [[TAG_PROMOTE_ACK].as_slice(), addr.as_bytes()].concat()
            }
        }
    }

    /// Decodes a message payload. Total: any truncated field or unknown
    /// tag is an `InvalidData` error, never a panic.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let tag = *payload.first().ok_or_else(|| bad("empty replication frame"))?;
        let rest = payload.get(1..).unwrap_or(&[]);
        match tag {
            TAG_RECORD => {
                let session = u64_at(rest, 0).ok_or_else(|| bad("record frame too short"))?;
                let payload = rest.get(8..).ok_or_else(|| bad("record frame too short"))?;
                Ok(ReplFrame::Record { session, payload: payload.to_vec() })
            }
            TAG_ACK => {
                let session = u64_at(rest, 0).ok_or_else(|| bad("ack frame too short"))?;
                let seq = u64_at(rest, 8).ok_or_else(|| bad("ack frame too short"))?;
                Ok(ReplFrame::Ack { session, seq })
            }
            TAG_PROMOTE => Ok(ReplFrame::Promote),
            TAG_PROMOTE_ACK => {
                let addr = std::str::from_utf8(rest)
                    .map_err(|_| bad("promote_ack address is not UTF-8"))?;
                Ok(ReplFrame::PromoteAck { addr: addr.to_string() })
            }
            _ => Err(bad("unknown replication frame tag")),
        }
    }
}

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let raw: [u8; 8] = bytes.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(raw))
}

/// Writes one framed replication message and flushes it.
pub fn write_repl_frame(w: &mut impl Write, frame: &ReplFrame) -> io::Result<()> {
    write_frame(w, &frame.encode())?;
    w.flush()
}

/// Reads one framed replication message: `[u32 len][u32 crc]`, then the
/// payload, with the CRC verified before decoding. Blocking; respects the
/// stream's read timeout (a timeout mid-frame is an error — the caller
/// drops the connection, it does not resynchronize).
pub fn read_repl_frame(r: &mut impl Read) -> io::Result<ReplFrame> {
    let mut frame = vec![0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut frame)?;
    let len = u32_at(&frame, 0).filter(|&len| len <= MAX_PAYLOAD_BYTES).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "replication frame exceeds the payload cap")
    })?;
    frame.resize(FRAME_HEADER_BYTES + len as usize, 0);
    r.read_exact(frame.get_mut(FRAME_HEADER_BYTES..).unwrap_or_default())?;
    decode_framed(&frame)
}

/// Checks one whole `[len][crc][payload]` frame's CRC and decodes it.
fn decode_framed(frame: &[u8]) -> io::Result<ReplFrame> {
    match read_frame(frame) {
        FrameRead::Ok { payload, .. } => ReplFrame::decode(payload),
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "replication frame CRC mismatch")),
    }
}

/// The follower's side of the wire as a [`Codec`] for `dime-serve`'s poll
/// loop: a frame is whole once its header and `len` payload bytes have
/// arrived, capped at the store's `MAX_PAYLOAD_BYTES`, and decodes as
/// [`read_repl_frame`] does. An answer of `None` refuses: no ack, and the
/// connection closes. A frame over the cap or failing its CRC or decode,
/// a full queue and a panicking handler are all refused that way; the
/// primary sees a failed round trip and redials.
#[derive(Debug, Clone, Copy)]
pub struct ReplCodec;

impl Codec for ReplCodec {
    type Request = ReplFrame;
    type Response = Option<ReplFrame>;
    type Framing = ();

    fn split(&self, _: &mut (), buf: &[u8], _eof: bool) -> Split {
        let Some(len) = u32_at(buf, 0) else { return Split::Partial };
        if len > MAX_PAYLOAD_BYTES {
            return Split::Corrupt;
        }
        let total = FRAME_HEADER_BYTES + len as usize;
        if buf.len() < total {
            Split::Partial
        } else {
            Split::Frame(total)
        }
    }

    fn decode(&self, frame: &[u8]) -> Option<Result<ReplFrame, Option<ReplFrame>>> {
        Some(decode_framed(frame).map_err(|_| None))
    }

    fn reject(&self, _: Reject) -> Option<ReplFrame> {
        None
    }

    fn encode(&self, resp: &Option<ReplFrame>) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        write_frame(&mut out, &resp.as_ref()?.encode()).ok()?;
        Some(out)
    }

    fn is_error(&self, resp: &Option<ReplFrame>) -> bool {
        resp.is_none()
    }

    fn is_shutdown(&self, _: &ReplFrame) -> bool {
        false
    }
}

fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let raw: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(raw))
}

/// The primary side of a replication stream: a [`dime_store::WalTap`]
/// that forwards each committed record to the follower and blocks for its
/// ack, so the primary's append does not return before the follower is as
/// durable as the fsync policy promises.
///
/// The connection is dialed lazily on the first record and redialed after
/// any error; an unreachable follower therefore surfaces as an append
/// error, which `dime-serve`'s fail-open persistence turns into a broken
/// session mirror rather than a refused request.
pub struct FollowerLink {
    addr: String,
    timeout: Duration,
    conn: Mutex<Option<TcpStream>>,
}

impl FollowerLink {
    /// A link to the follower's replication address. `timeout` bounds the
    /// connect and each ack wait.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Self {
        Self { addr: addr.into(), timeout, conn: Mutex::new(None) }
    }

    fn stream_record(
        &self,
        conn: &mut Option<TcpStream>,
        session: u64,
        seq: u64,
        payload: &[u8],
    ) -> io::Result<()> {
        let stream = match conn {
            Some(stream) => stream,
            None => {
                let stream = connect_with_timeout(&self.addr, self.timeout)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(self.timeout))?;
                stream.set_write_timeout(Some(self.timeout))?;
                conn.insert(stream)
            }
        };
        write_repl_frame(stream, &ReplFrame::Record { session, payload: payload.to_vec() })?;
        match read_repl_frame(stream)? {
            ReplFrame::Ack { session: s, seq: q } if s == session && q == seq => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected ack for session {session} seq {seq}, got {other:?}"),
            )),
        }
    }
}

/// Resolves `addr` and dials it with a per-candidate connect timeout.
pub fn connect_with_timeout(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    use std::net::ToSocketAddrs;
    let mut last = io::Error::new(io::ErrorKind::NotFound, format!("no address for {addr:?}"));
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
    }
    Err(last)
}

impl dime_store::WalTap for FollowerLink {
    fn record_committed(&self, session: u64, payload: &[u8]) -> io::Result<()> {
        let (seq, _op) = decode_record(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad record: {e}")))?;
        let mut conn = lock(&self.conn);
        let sent = self.stream_record(&mut conn, session, seq, payload);
        if sent.is_err() {
            // The stream is desynchronized or dead either way; the next
            // record redials. Replayed prefixes are the follower's
            // problem to reject (append_raw validates sequence order).
            *conn = None;
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dime_store::{encode_record, WalOp, WalTap};
    use std::net::TcpListener;

    fn roundtrip(frame: ReplFrame) {
        let mut buf = Vec::new();
        write_repl_frame(&mut buf, &frame).expect("write");
        let decoded = read_repl_frame(&mut buf.as_slice()).expect("read");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(ReplFrame::Record { session: 7, payload: b"raw record bytes".to_vec() });
        roundtrip(ReplFrame::Ack { session: 7, seq: 42 });
        roundtrip(ReplFrame::Promote);
        roundtrip(ReplFrame::PromoteAck { addr: "127.0.0.1:4071".into() });
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        let mut buf = Vec::new();
        write_repl_frame(&mut buf, &ReplFrame::Ack { session: 1, seq: 2 }).expect("write");
        let last = buf.len() - 1;
        buf[last] ^= 0xFF; // flip a payload byte: CRC must catch it
        assert!(read_repl_frame(&mut buf.as_slice()).is_err());

        assert!(ReplFrame::decode(&[]).is_err());
        assert!(ReplFrame::decode(&[TAG_RECORD, 1, 2]).is_err());
        assert!(ReplFrame::decode(&[TAG_ACK, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(ReplFrame::decode(&[99]).is_err());
        assert!(ReplFrame::decode(&[TAG_PROMOTE_ACK, 0xFF, 0xFE]).is_err());
    }

    /// A follower stub on a real socket: acks every record with its
    /// decoded seq. The link must deliver records in order and survive
    /// the ack round trips.
    #[test]
    fn follower_link_streams_and_awaits_acks() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let follower = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut seqs = Vec::new();
            for _ in 0..3 {
                match read_repl_frame(&mut conn).expect("read record") {
                    ReplFrame::Record { session, payload } => {
                        let (seq, _) = decode_record(&payload).expect("decode");
                        seqs.push(seq);
                        write_repl_frame(&mut conn, &ReplFrame::Ack { session, seq })
                            .expect("write ack");
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            seqs
        });

        let link = FollowerLink::new(addr.to_string(), Duration::from_secs(5));
        for seq in 1..=3u64 {
            let payload = encode_record(seq, &WalOp::AddEntity { values: vec!["v".into()] });
            link.record_committed(9, &payload).expect("record must be acked");
        }
        assert_eq!(follower.join().expect("follower"), vec![1, 2, 3]);
    }

    /// A wrong ack is a replication failure the primary must surface, and
    /// the link must drop the connection so the next record redials.
    #[test]
    fn mismatched_ack_fails_the_append() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let follower = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let _ = read_repl_frame(&mut conn).expect("read record");
            write_repl_frame(&mut conn, &ReplFrame::Ack { session: 9, seq: 999 })
                .expect("write bogus ack");
        });

        let link = FollowerLink::new(addr.to_string(), Duration::from_secs(5));
        let payload = encode_record(1, &WalOp::Close);
        assert!(link.record_committed(9, &payload).is_err());
        follower.join().expect("follower");
    }

    #[test]
    fn unreachable_follower_is_an_error_not_a_hang() {
        // A listener that is immediately dropped: the port is closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let link = FollowerLink::new(addr.to_string(), Duration::from_millis(200));
        let payload = encode_record(1, &WalOp::Close);
        assert!(link.record_committed(1, &payload).is_err());
    }
}
