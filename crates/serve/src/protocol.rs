//! The control protocol layered over the wire format's frames.
//!
//! Every frame on a daemon socket is a `u32`-length-prefixed payload
//! (see `cord_obs::wire`); the payload's first byte says what it is:
//!
//! | tag | direction | payload |
//! |-----|-----------|---------|
//! | `H` | client → daemon | stream header (starts an ingest session) |
//! | `E` | client → daemon | a batch of binary-encoded events |
//! | `Q` | client → daemon | a JSON query (`{"cmd": "status"}` …) |
//! | `R` | daemon → client | a JSON response |
//!
//! `H`/`E` are exactly the frames [`cord_obs::wire::encode_capture`]
//! produces, so a capture file can be streamed to the daemon verbatim.
//! The `drain` query's response payload is the sink report's canonical
//! bytes ([`SinkReport::to_bytes`](cord_core::SinkReport::to_bytes)) —
//! what the byte-identity contract compares.

use cord_json::{Json, JsonError, ToJson};
use cord_obs::WireError;
use std::fmt;
use std::io;

/// Frame tag of a client query (JSON payload follows).
pub const FRAME_QUERY: u8 = b'Q';
/// Frame tag of a daemon response (JSON payload follows).
pub const FRAME_RESPONSE: u8 = b'R';

/// A control query a client can send — on a dedicated connection, or
/// interleaved after event frames on an ingest session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Daemon-wide status: sessions, events, races, snapshots, and any
    /// snapshot-recovery events.
    Status,
    /// All races drained from completed sessions.
    Races,
    /// The merged metrics registry of completed sessions.
    Metrics,
    /// Flush and drain the *current* session's sink; the response
    /// payload is the report's canonical bytes. Only meaningful on an
    /// ingest session.
    Drain,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

impl Query {
    /// The wire name of this query.
    pub fn name(self) -> &'static str {
        match self {
            Query::Status => "status",
            Query::Races => "races",
            Query::Metrics => "metrics",
            Query::Drain => "drain",
            Query::Shutdown => "shutdown",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Query> {
        Some(match name {
            "status" => Query::Status,
            "races" => Query::Races,
            "metrics" => Query::Metrics,
            "drain" => Query::Drain,
            "shutdown" => Query::Shutdown,
            _ => return None,
        })
    }

    /// Encodes the query as a `Q` frame payload.
    pub fn encode(self) -> Vec<u8> {
        let doc = cord_json::obj(vec![("cmd", self.name().to_json())]);
        let mut payload = vec![FRAME_QUERY];
        payload.extend_from_slice(doc.to_string_compact().as_bytes());
        payload
    }

    /// Decodes a `Q` frame payload (tag byte included).
    pub fn decode(payload: &[u8]) -> Result<Query, ServeError> {
        let body = match payload.split_first() {
            Some((&FRAME_QUERY, body)) => body,
            Some((&tag, _)) => return Err(ServeError::BadFrame { tag }),
            None => return Err(ServeError::Protocol("empty query frame".into())),
        };
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::Protocol("query frame is not UTF-8".into()))?;
        let doc = Json::parse(text)?;
        let cmd: String = cord_json::FromJson::from_json(doc.field("cmd")?)?;
        Query::from_name(&cmd).ok_or_else(|| ServeError::Protocol(format!("unknown query `{cmd}`")))
    }
}

/// Wraps a JSON document as an `R` frame payload.
pub fn encode_response(doc: &Json) -> Vec<u8> {
    let mut payload = vec![FRAME_RESPONSE];
    payload.extend_from_slice(doc.to_string_compact().as_bytes());
    payload
}

/// Wraps pre-serialized canonical bytes as an `R` frame payload (the
/// drain path — the bytes must pass through unreserialized).
pub fn encode_response_bytes(bytes: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + bytes.len());
    payload.push(FRAME_RESPONSE);
    payload.extend_from_slice(bytes);
    payload
}

/// Unwraps an `R` frame payload into its raw body bytes.
pub fn response_body(payload: &[u8]) -> Result<&[u8], ServeError> {
    match payload.split_first() {
        Some((&FRAME_RESPONSE, body)) => Ok(body),
        Some((&tag, _)) => Err(ServeError::BadFrame { tag }),
        None => Err(ServeError::Protocol("empty response frame".into())),
    }
}

/// Anything that can go wrong between a client and the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(io::Error),
    /// A frame's binary payload failed to decode.
    Wire(WireError),
    /// A JSON payload failed to parse.
    Json(JsonError),
    /// A frame arrived with an unexpected tag.
    BadFrame {
        /// The offending tag byte.
        tag: u8,
    },
    /// The peer violated the session protocol.
    Protocol(String),
    /// An event names a thread, core or line at or past the stream
    /// header's geometry.
    OutOfGeometry {
        /// `"thread"`, `"core"` or `"line"` (a dense line index).
        field: &'static str,
        /// The index the event named.
        index: u64,
        /// The header's count; valid indices are below it.
        limit: u64,
    },
    /// An access's instruction index, or a `RunEnd`'s instruction
    /// count, is not above the index of its thread's last access.
    InstrOrder {
        /// The thread.
        thread: u16,
        /// The index or count the event gave.
        index: u64,
        /// The instruction index of the thread's last access.
        last: u64,
    },
    /// An event arrived after the stream's `RunEnd`, which must come
    /// last (a second `RunEnd` included).
    EventAfterRunEnd,
    /// The stream header declares no threads or cores, or more threads,
    /// cores, heap words or synchronization objects than the daemon
    /// builds a detector for.
    HeaderGeometry {
        /// The header field: `"threads"`, `"cores"`, `"data_words"`,
        /// `"user_locks"`, `"user_flags"`, `"barriers"` or
        /// `"user_atomics"`.
        field: &'static str,
        /// The count the header declared.
        count: u64,
        /// The smallest count accepted.
        min: u64,
        /// The largest count accepted.
        max: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o failure: {e}"),
            ServeError::Wire(e) => write!(f, "wire decode failure: {e}"),
            ServeError::Json(e) => write!(f, "malformed payload: {e}"),
            ServeError::BadFrame { tag } => write!(f, "unexpected frame tag {tag:#04x}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::OutOfGeometry {
                field,
                index,
                limit,
            } => write!(
                f,
                "event names {field} {index}, but the stream header declares {limit}"
            ),
            ServeError::InstrOrder {
                thread,
                index,
                last,
            } => write!(
                f,
                "event gives thread {thread} instruction {index}, \
                 not above its last access's {last}"
            ),
            ServeError::EventAfterRunEnd => write!(f, "event after the stream's run end"),
            ServeError::HeaderGeometry {
                field,
                count,
                min,
                max,
            } => write!(
                f,
                "stream header declares {count} {field}; the daemon accepts {min} to {max}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<JsonError> for ServeError {
    fn from(e: JsonError) -> Self {
        ServeError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        for q in [
            Query::Status,
            Query::Races,
            Query::Metrics,
            Query::Drain,
            Query::Shutdown,
        ] {
            assert_eq!(Query::decode(&q.encode()).expect("decodes"), q);
            assert_eq!(Query::from_name(q.name()), Some(q));
        }
        assert!(Query::decode(&[FRAME_RESPONSE, b'{', b'}']).is_err());
        assert!(Query::from_name("nonsense").is_none());
    }

    #[test]
    fn response_bytes_pass_through_unreserialized() {
        let bytes = br#"{"detector":"CORD-D16","race_count":0}"#;
        let payload = encode_response_bytes(bytes);
        assert_eq!(response_body(&payload).expect("unwraps"), bytes);
    }
}
