//! Links: the one thing the supervisor knows about where a shard
//! attempt runs.
//!
//! A [`Link`] is a framed duplex to *something* that answers each
//! [`ShardTask`](crate::fabric::ShardTask) with one result frame,
//! preceded by a heartbeat per
//! [`HEARTBEAT_EVERY`](crate::fabric::HEARTBEAT_EVERY) of measuring — so
//! a fast rung's whole answer is that one frame. The supervisor opens
//! one link per shard per study through a [`Dial`], pumps its read half
//! into the watch loop for as long as it lives, and writes one task per
//! rung to it; an attempt that fails closes the link and the retry
//! opens a new one — identically for a child process's stdin/stdout, a
//! TCP session with a shard host, and the scripted in-memory link the
//! unit tests substitute.

use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

use edgetune_net::{client_hello, FramedTcp, Hello};

use crate::backend::BackendSpec;
use crate::fabric::worker::WORKER_SUBCOMMAND;

/// One open, framed connection to a shard executor.
pub(crate) trait Link: Send {
    /// The half tasks are written to.
    fn writer(&mut self) -> &mut dyn Write;

    /// Splits off the half frames come back on, for the session's reader
    /// thread; called once, right after the link opens. It must reach
    /// end-of-stream once [`close`](Link::close) has run, so that thread
    /// can be joined.
    fn reader(&mut self) -> Result<Box<dyn Read + Send>, String>;

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
    /// Spawn a local `__shard-worker` child and speak frames over its
    /// stdin/stdout. `None` when no executable could be found.
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

    /// Opens a fresh link for `shard`. `study` and `spec`
    /// go into the remote session's hello; `connect_timeout` bounds the
    /// dial and the wait for the host's answer to the hello, so a dead
    /// or silent address fails fast instead of hanging the rung.
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
                let mut child = Command::new(exe)
                    .arg(WORKER_SUBCOMMAND)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawn failed: {e}"))?;
                let stdin = child.stdin.take().expect("stdin was piped");
                let stdout = child.stdout.take();
                Ok(Box::new(PipeLink {
                    child,
                    stdin,
                    stdout,
                }))
            }
            Dial::Remote { hosts } => {
                let host = &hosts[shard % hosts.len()];
                let mut conn = FramedTcp::connect(host, connect_timeout)
                    .map_err(|e| format!("connecting to {host}: {e}"))?;
                let spec_json = serde_json::to_string(spec)
                    .expect("backend specs are plain data and always serialise");
                // The session's pump later reads a clone of this socket,
                // bounded by the heartbeat deadline instead, so the
                // hello's receive timeout is cleared once it is answered.
                conn.set_recv_timeout(Some(connect_timeout))
                    .and_then(|()| client_hello(&mut conn, &Hello::new(study, spec_json)))
                    .and_then(|_| conn.set_recv_timeout(None))
                    .map_err(|e| format!("handshake with {host}: {e}"))?;
                Ok(Box::new(TcpLink(conn)))
            }
            #[cfg(test)]
            Dial::Scripted(script) => script(shard),
        }
    }
}

/// A worker child process: tasks down its stdin, frames up its stdout.
struct PipeLink {
    child: Child,
    stdin: ChildStdin,
    stdout: Option<ChildStdout>,
}

impl Link for PipeLink {
    fn writer(&mut self) -> &mut dyn Write {
        &mut self.stdin
    }

    fn reader(&mut self) -> Result<Box<dyn Read + Send>, String> {
        let stdout = self.stdout.take().ok_or("worker stdout already taken")?;
        // Buffered like the TCP receiver, so a frame costs one `read(2)`
        // rather than one for its header and one for its payload.
        Ok(Box::new(BufReader::new(stdout)))
    }

    fn close(self: Box<Self>, failed: bool) {
        let PipeLink {
            mut child, stdin, ..
        } = *self;
        // The worker's loop exits on stdin EOF; a failed one may never
        // get there, so it is killed. Either way it is reaped so nothing
        // zombifies.
        drop(stdin);
        if failed {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

/// A session with a shard host, past the handshake.
struct TcpLink(FramedTcp);

impl Link for TcpLink {
    fn writer(&mut self) -> &mut dyn Write {
        &mut self.0
    }

    fn reader(&mut self) -> Result<Box<dyn Read + Send>, String> {
        // Split right after the handshake, while the host is guaranteed
        // silent: bytes already buffered on this half would not transfer.
        let receiver = self
            .0
            .split_recv()
            .map_err(|e| format!("splitting the session socket: {e}"))?;
        Ok(Box::new(receiver))
    }

    fn close(self: Box<Self>, _failed: bool) {
        // Shutdown unblocks the reader (both halves clone one socket),
        // so it can be joined without waiting on the peer.
        self.0.shutdown();
    }
}
