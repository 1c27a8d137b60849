//! Framed TCP: the pipe frame codec over a socket.
//!
//! [`FramedTcp`] is a thin, explicit wrapper around [`TcpStream`] that
//! speaks the [`frame`](edgetune_runtime::frame) codec and owns the two
//! timeout decisions a supervisor cares about: a bounded connect (a
//! dead host address must fail fast, not hang the rung) and an optional
//! receive deadline (a silent peer surfaces as a timeout error the
//! caller can classify via [`NetError::is_timeout`]).
//!
//! A receive timeout is **connection-terminal** by convention: the
//! frame reader may have consumed a partial header when the clock runs
//! out, so after a timeout the stream must be dropped and the session
//! re-established — exactly the reconnect discipline the fabric's
//! retry policy already implements.

// Decoding untrusted bytes must not panic: a malformed input is an error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use edgetune_runtime::frame::{read_frame, write_frame, Frame, FrameKind};

use crate::NetError;

/// A TCP stream carrying length-prefixed CRC-checked frames.
#[derive(Debug)]
pub struct FramedTcp {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl FramedTcp {
    /// Connects to `addr` (a `host:port` string) with a hard bound on
    /// the connect itself, and disables Nagle so single-frame messages
    /// leave immediately.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when resolution, the bounded connect, or socket
    /// configuration fails.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, NetError> {
        let mut last = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(NetError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                format!("'{addr}' resolved to no addresses"),
            )
        })))
    }

    /// Wraps an accepted stream (server side).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when socket configuration fails.
    pub fn from_stream(stream: TcpStream) -> Result<Self, NetError> {
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(FramedTcp {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// The peer's address.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the socket is no longer connected.
    pub fn peer_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.reader.get_ref().peer_addr()?)
    }

    /// Sets (or clears) the receive deadline for [`recv`](Self::recv).
    /// After a timeout fires the connection must be discarded — see the
    /// module docs.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the socket rejects the option.
    pub fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one frame and flushes it to the wire.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] or [`NetError::Frame`] from the codec.
    pub fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), NetError> {
        write_frame(&mut self.writer, kind, payload)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Receives the next frame. `Ok(None)` is a clean close on a frame
    /// boundary; a close inside a frame is a
    /// [`Truncated`](edgetune_runtime::frame::FrameError::Truncated)
    /// frame error.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] (including timeouts — check
    /// [`NetError::is_timeout`]) or [`NetError::Frame`].
    pub fn recv(&mut self) -> Result<Option<Frame>, NetError> {
        Ok(read_frame(&mut self.reader)?)
    }

    /// Splits off an independently-owned receive half (sharing the same
    /// underlying socket), so a reader thread can block on frames while
    /// another thread keeps the send half.
    ///
    /// Split **before** the peer can have more frames in flight: bytes
    /// already buffered on this side (from an earlier `recv`) do not
    /// transfer to the new half. In the fabric's session discipline the
    /// split happens right after the handshake, when the peer is
    /// guaranteed silent.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the socket cannot be duplicated.
    pub fn split_recv(&self) -> Result<FramedTcpReceiver, NetError> {
        let stream = self.reader.get_ref().try_clone()?;
        Ok(FramedTcpReceiver {
            reader: BufReader::new(stream),
        })
    }

    /// Shuts both directions down, waking any thread blocked on the
    /// socket (best-effort — the peer may already be gone).
    pub fn shutdown(&self) {
        let _ = self.reader.get_ref().shutdown(Shutdown::Both);
    }
}

// The handshake functions are generic over raw streams; delegating
// `Read`/`Write` lets them run directly on a framed socket.
impl std::io::Read for FramedTcp {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::io::Read::read(&mut self.reader, buf)
    }
}

impl Write for FramedTcp {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writer.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

/// The receive half split off a [`FramedTcp`] for a dedicated reader
/// thread.
#[derive(Debug)]
pub struct FramedTcpReceiver {
    reader: BufReader<TcpStream>,
}

// Code generic over a frame stream (the shard fabric's task loop and
// attempt reader) runs on the split-off half directly.
impl std::io::Read for FramedTcpReceiver {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::io::Read::read(&mut self.reader, buf)
    }
}
