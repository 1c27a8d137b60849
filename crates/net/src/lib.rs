//! Socket transport for the EdgeTune shard fabric.
//!
//! The process fabric (ROADMAP step 1) ships [`frame`](edgetune_runtime::frame)-coded
//! messages over a socket on a child's stdin/stdout. This crate promotes the
//! same codec to TCP so shards can live on remote engines (step 2),
//! without knowing anything about what the frames *carry* — the shard
//! task protocol stays in the core crate; `edgetune-net` owns only the
//! connection mechanics:
//!
//! * [`FramedTcp`] — a TCP stream speaking the length-prefixed
//!   CRC-checked frame codec, with a bounded connect and an optional
//!   receive deadline that surfaces a silent peer as a timeout error
//!   ([`NetError::is_timeout`]). The fabric arms that deadline on both
//!   sides of the handshake, so neither a coordinator nor a host waits
//!   forever on a peer that never speaks, and a coordinator re-arms it
//!   before every read with what is left of the shard's heartbeat
//!   deadline.
//! * [`handshake`] — the versioned session opening: an explicit
//!   protocol magic and version word exchanged *inside* typed frames
//!   before any task flows, so a mismatched peer is rejected with a
//!   structured reason instead of surfacing as a CRC failure halfway
//!   through a task.
//!
//! Everything here is wall-clock I/O and therefore lives strictly on
//! the supervision side of the byte-identity line: nothing in this
//! crate may influence a study's report, trace, or stdout bytes.

use std::fmt;

use edgetune_runtime::frame::FrameError;

pub mod handshake;
pub mod transport;

pub use handshake::{
    accept_hello, client_hello, hello_answer, send_hello, Hello, HelloAck, PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
};
pub use transport::FramedTcp;

/// Everything that can go wrong on a fabric socket.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket failed (includes receive timeouts, which
    /// surface as `WouldBlock`/`TimedOut` I/O errors).
    Io(std::io::Error),
    /// The frame layer failed: torn stream, bad checksum, oversized
    /// length.
    Frame(FrameError),
    /// The peer rejected the handshake with a structured reason
    /// (protocol magic or version mismatch, malformed hello).
    Rejected(String),
    /// The peer violated the session protocol (wrong frame kind, an
    /// unexpected close).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Frame(e) => write!(f, "frame error: {e}"),
            Self::Rejected(reason) => write!(f, "handshake rejected: {reason}"),
            Self::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        // An I/O error inside the frame layer is a socket problem, not
        // a codec problem; unwrap it so timeout checks see the kind.
        match e {
            FrameError::Io(io) => Self::Io(io),
            other => Self::Frame(other),
        }
    }
}

impl NetError {
    /// True when the error is a receive timeout (the peer stayed silent
    /// past the configured deadline) rather than a dead or corrupt
    /// connection.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}
