//! Links: the one thing the supervisor knows about where a shard
//! attempt runs.
//!
//! A [`Link`] is a framed duplex to *something* that answers each
//! [`ShardTask`](crate::fabric::ShardTask) with one result frame,
//! preceded by a heartbeat per
//! [`HEARTBEAT_EVERY`](crate::fabric::HEARTBEAT_EVERY) of measuring — so
//! a fast rung's whole answer is that one frame. The supervisor opens
//! one link per shard per study through a [`Dial`], sends one task per
//! rung on it and reads the answer back itself, each read bounded by
//! what is left of the shard's heartbeat deadline; an attempt that
//! fails closes the link and the retry opens a new one — identically
//! for a child process's socket, a TCP session with a shard host, and
//! the scripted in-memory link the unit tests substitute.
//!
//! A worker child's stdin and stdout are both one end of a Unix socket
//! pair: unlike a pipe, a socket can be read with a timeout. The parent
//! keeps the other end and closes the child's copy right after the
//! spawn, so a dead worker reads as end-of-stream, not as silence.

use std::io::BufReader;
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use edgetune_net::{hello_answer, send_hello, FramedTcp, Hello, NetError};
use edgetune_runtime::frame::{read_frame, write_frame, Frame, FrameKind};

use crate::backend::BackendSpec;
use crate::fabric::worker::WORKER_SUBCOMMAND;

/// What one [`Link::recv`] ended as.
pub(crate) enum Recv {
    /// A whole, checksum-verified frame.
    Frame(Frame),
    /// Nothing arrived within the wait.
    Silent,
    /// The stream ended, tore or failed: the peer is gone.
    Ended,
    /// The peer did not accept the session's opening: why.
    Refused(String),
}

impl Recv {
    /// Classifies a frame read: a timed-out read is silence, a session
    /// opening the host did not accept is refused, and anything else that
    /// is not a frame is the end of the link.
    fn of(read: Result<Option<Frame>, NetError>) -> Self {
        match read {
            Ok(Some(frame)) => Recv::Frame(frame),
            Err(e) if e.is_timeout() => Recv::Silent,
            Err(e @ (NetError::Rejected(_) | NetError::Protocol(_))) => {
                Recv::Refused(e.to_string())
            }
            Ok(None) | Err(_) => Recv::Ended,
        }
    }
}

/// One open, framed connection to a shard executor.
pub(crate) trait Link: Send {
    /// Sends one frame and flushes it.
    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), String>;

    /// Reads the next frame, each read of the stream waiting at most
    /// `wait` (non-zero) for the peer. A frame that has already arrived
    /// is returned at once, however short the wait. A read that timed
    /// out may have consumed part of a frame, so the supervisor closes a
    /// link it found silent.
    fn recv(&mut self, wait: Duration) -> Recv;

    /// Releases the link. After a `failed` attempt the peer may be hung
    /// or half-dead and is torn down rather than waited for.
    fn close(self: Box<Self>, failed: bool);
}

/// What a test scripts in place of a real placement: the link to hand
/// out when a shard opens one, or the reason it cannot be opened.
#[cfg(test)]
pub(crate) type LinkScript = Box<dyn Fn(usize) -> Result<Box<dyn Link>, String> + Send + Sync>;

/// Opens the links of one supervised placement.
pub(crate) enum Dial {
    /// Spawn a local `__shard-worker` child and speak frames over a
    /// socket pair on its stdin/stdout. `None` when no executable could
    /// be found.
    Process { exe: Option<PathBuf> },
    /// Dial a standing `edgetune shard-host` daemon and open a session
    /// with the versioned handshake. Shard `i` uses
    /// `hosts[i % hosts.len()]`.
    Remote { hosts: Vec<String> },
    /// Hands out whatever link the test scripted for the shard.
    #[cfg(test)]
    Scripted(LinkScript),
}

impl Dial {
    /// Whether a resent task can reach an executor that outlived the
    /// attempt it first ran under — a standing host, never a worker
    /// process, whose link a failed attempt closes — and so is worth
    /// keying for replay.
    pub(crate) fn outlives_attempts(&self) -> bool {
        matches!(self, Dial::Remote { .. })
    }

    /// Opens a fresh link for `shard`. `study` and `spec` go into the
    /// remote session's hello; `connect_timeout` bounds the dial, so a
    /// dead address fails fast. The link's first [`Link::recv`] reads the
    /// host's answer, so the shards of a rung wait for silent hosts together.
    pub(crate) fn open(
        &self,
        shard: usize,
        study: u64,
        spec: &BackendSpec,
        connect_timeout: Duration,
    ) -> Result<Box<dyn Link>, String> {
        match self {
            Dial::Process { exe } => {
                let exe = exe.as_ref().ok_or("no worker executable available")?;
                let (ours, theirs) =
                    UnixStream::pair().map_err(|e| format!("opening a socket pair: {e}"))?;
                let theirs_too = theirs
                    .try_clone()
                    .map_err(|e| format!("opening a socket pair: {e}"))?;
                // The command owns the child's two descriptors and is a
                // temporary: they close at the end of this statement, so
                // once the worker exits nothing holds its end open.
                let child = Command::new(exe)
                    .arg(WORKER_SUBCOMMAND)
                    .stdin(Stdio::from(OwnedFd::from(theirs)))
                    .stdout(Stdio::from(OwnedFd::from(theirs_too)))
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawn failed: {e}"))?;
                Ok(Box::new(WorkerLink {
                    child,
                    // Buffered like the TCP receiver, so a frame costs one
                    // `read(2)` rather than one for its header and one for
                    // its payload.
                    socket: BufReader::new(ours),
                }))
            }
            Dial::Remote { hosts } => {
                let host = &hosts[shard % hosts.len()];
                let mut conn = FramedTcp::connect(host, connect_timeout)
                    .map_err(|e| format!("connecting to {host}: {e}"))?;
                let spec_json = serde_json::to_string(spec)
                    .expect("backend specs are plain data and always serialise");
                send_hello(&mut conn, &Hello::new(study, spec_json))
                    .map_err(|e| format!("handshake with {host}: {e}"))?;
                Ok(Box::new(HostLink {
                    conn,
                    accepted: false,
                }))
            }
            #[cfg(test)]
            Dial::Scripted(script) => script(shard),
        }
    }
}

/// A worker child process, spoken to over its end of a socket pair.
struct WorkerLink {
    child: Child,
    socket: BufReader<UnixStream>,
}

impl Link for WorkerLink {
    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), String> {
        write_frame(self.socket.get_mut(), kind, payload).map_err(|e| e.to_string())
    }

    fn recv(&mut self, wait: Duration) -> Recv {
        Recv::of(
            self.socket
                .get_ref()
                .set_read_timeout(Some(wait))
                .map_err(NetError::from)
                .and_then(|()| Ok(read_frame(&mut self.socket)?)),
        )
    }

    fn close(self: Box<Self>, failed: bool) {
        let WorkerLink { mut child, socket } = *self;
        // The worker's loop exits when its stdin ends; a failed one may
        // never get there, so it is killed. Either way it is reaped so
        // nothing zombifies.
        drop(socket);
        if failed {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

/// A session with a shard host, `accepted` once the answer to its hello
/// has been read.
struct HostLink {
    conn: FramedTcp,
    accepted: bool,
}

impl Link for HostLink {
    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), String> {
        self.conn.send(kind, payload).map_err(|e| e.to_string())
    }

    fn recv(&mut self, wait: Duration) -> Recv {
        let mut ready = self.conn.set_recv_timeout(Some(wait));
        if !self.accepted {
            ready = ready.and_then(|()| hello_answer(&mut self.conn).map(|_| self.accepted = true));
        }
        Recv::of(ready.and_then(|()| self.conn.recv()))
    }

    fn close(self: Box<Self>, _failed: bool) {
        self.conn.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_runtime::frame::encode_frame;
    use std::io::Write;
    use std::time::Instant;

    /// A worker link whose "worker" is the test, holding the other end.
    fn socket_link() -> (WorkerLink, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let child = Command::new("true").spawn().unwrap();
        let link = WorkerLink {
            child,
            socket: BufReader::new(ours),
        };
        (link, theirs)
    }

    #[test]
    fn a_frame_that_already_arrived_is_read_within_the_shortest_wait() {
        let (mut link, mut peer) = socket_link();
        peer.write_all(&encode_frame(FrameKind::Heartbeat, b"{}"))
            .unwrap();
        peer.write_all(&encode_frame(FrameKind::Result, b"{}"))
            .unwrap();
        for kind in [FrameKind::Heartbeat, FrameKind::Result] {
            assert!(matches!(
                link.recv(Duration::from_millis(1)),
                Recv::Frame(frame) if frame.kind == kind
            ));
        }
        let started = Instant::now();
        assert!(matches!(link.recv(Duration::from_millis(20)), Recv::Silent));
        assert!(started.elapsed() >= Duration::from_millis(15));
        drop(peer);
        assert!(matches!(link.recv(Duration::from_secs(5)), Recv::Ended));
        Box::new(link).close(false);
    }

    /// A host link whose "host" is the test: what it writes first is the
    /// answer to the hello.
    fn host_link(answer: &[u8]) -> (HostLink, std::net::TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let conn = FramedTcp::connect(&addr, Duration::from_secs(5)).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(answer).unwrap();
        let link = HostLink {
            conn,
            accepted: false,
        };
        (link, peer)
    }

    #[test]
    fn a_host_link_reads_the_answer_to_its_hello_before_any_frame() {
        let ack = serde_json::to_string(&edgetune_net::HelloAck {
            magic: edgetune_net::PROTOCOL_MAGIC,
            version: edgetune_net::PROTOCOL_VERSION,
        })
        .unwrap();
        let mut answer = encode_frame(FrameKind::HelloAck, ack.as_bytes());
        answer.extend(encode_frame(FrameKind::Result, b"{}"));
        let (mut link, _peer) = host_link(&answer);
        assert!(matches!(
            link.recv(Duration::from_secs(5)),
            Recv::Frame(frame) if frame.kind == FrameKind::Result
        ));

        let reject = serde_json::to_string(&edgetune_net::handshake::HandshakeReject {
            reason: "protocol version mismatch".to_string(),
        })
        .unwrap();
        let (mut link, _peer) = host_link(&encode_frame(FrameKind::Error, reject.as_bytes()));
        assert!(matches!(
            link.recv(Duration::from_secs(5)),
            Recv::Refused(reason) if reason.contains("version mismatch")
        ));
    }

    #[test]
    fn a_torn_frame_ends_the_link() {
        let (mut link, mut peer) = socket_link();
        let frame = encode_frame(FrameKind::Result, b"measurements");
        peer.write_all(&frame[..frame.len() - 3]).unwrap();
        drop(peer);
        assert!(matches!(link.recv(Duration::from_secs(5)), Recv::Ended));
        Box::new(link).close(true);
    }
}
