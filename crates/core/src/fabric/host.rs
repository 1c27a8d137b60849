//! The shard host: a standing daemon that executes rungs over TCP.
//!
//! `edgetune shard-host --listen ADDR` runs a [`ShardHost`]: an accept
//! loop that gives every coordinator connection its own session thread.
//! A session opens with the [`edgetune_net`] handshake (protocol magic,
//! version, study seed, and the serialised [`BackendSpec`] as metadata,
//! validated up front so a bad spec is rejected with a reason before
//! any task flows), then runs the fabric's one task loop,
//! `serve_tasks`: read a [`ShardTask`], answer it with one
//! [`ShardResultMsg`](crate::fabric::ShardResultMsg) — preceded by a
//! [`ShardHeartbeat`](crate::fabric::ShardHeartbeat) per
//! [`HEARTBEAT_EVERY`] of measuring, none for a fast slice — read the
//! next. A `__shard-worker` process runs the very same loop on its
//! stdin/stdout.
//!
//! Two disciplines distinguish a host:
//!
//! - **No read-ahead.** A session reads its next task only after it
//!   answered the last one, so TCP backpressure bounds what a peer can
//!   park on the host, and a peer that pipelines tasks is answered in
//!   order. A connection that sends no hello within
//!   `HANDSHAKE_DEADLINE` is dropped and counted as a reject.
//! - **Idempotent rungs.** Results are cached under their [`RungKey`]
//!   plus a digest of what the task asks for, in a host-global LRU-ish
//!   cache, *before* they are sent. A coordinator that lost the session
//!   mid-result reconnects and resends the same task; the host replays
//!   the cached measurements instead of executing the rung twice. A
//!   *different* task under the same key — another study with the same
//!   seed on a long-lived daemon — never matches.
//!
//! Chaos travels in the task: `Kill` takes the whole process down (for
//! a daemon, the SIGKILL-the-host scenario the coordinator's fallback
//! must absorb), `Panic` is caught per task and surfaced as a
//! structured error frame, `Hang` sleeps the session thread until the
//! coordinator's heartbeat deadline gives up on it.

// Decoding untrusted bytes must not panic: a malformed input is an error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use edgetune_net::{accept_hello, FramedTcp, NetError};
use edgetune_runtime::frame::{read_frame, write_frame, FrameKind};

use crate::backend::BackendSpec;
use crate::fabric::protocol::{decode, encode, RungKey, ShardTask, WorkerFailure};
use crate::fabric::worker::{execute_task, HEARTBEAT_EVERY};

/// The CLI subcommand that turns the binary into a shard host.
pub const HOST_SUBCOMMAND: &str = "shard-host";

/// How long a connection may stay silent before presenting its hello.
/// A coordinator sends the hello right after connecting; a peer that
/// does not is dropped instead of holding a session thread.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(3);

/// Host-global result cache bound (entries). FIFO eviction — reconnect
/// resends arrive promptly, so only recent rungs need to be replayable.
const RESULT_CACHE_CAP: usize = 64;

/// Supervision counters a host accumulates across every session. All
/// loads/stores are relaxed — the counters are diagnostics, not
/// synchronisation.
#[derive(Debug, Default)]
struct HostCounters {
    sessions: AtomicU64,
    rejects: AtomicU64,
    tasks_executed: AtomicU64,
    cache_hits: AtomicU64,
}

/// A point-in-time snapshot of a host's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostStats {
    /// Sessions whose handshake was accepted.
    pub sessions: u64,
    /// Connections turned away at the handshake (wrong magic/version,
    /// undecodable hello or backend spec, no hello within the handshake
    /// deadline).
    pub rejects: u64,
    /// Tasks actually measured (cache hits excluded).
    pub tasks_executed: u64,
    /// Tasks answered from the idempotency cache.
    pub cache_hits: u64,
}

/// What a cached result answers: the rung execution's identity plus a
/// digest of everything the measurements depend on. [`RungKey`] alone
/// is not enough — it names a (seed, bracket, rung, shard) position, and
/// two different studies can occupy the same one.
type CacheKey = (RungKey, u64);

/// The cache key of a keyed task, `None` for an unkeyed one. The digest
/// covers the spec, the study time and the trials; `attempt` and `chaos`
/// differ between a task and its resend and are deliberately left out.
fn cache_key(task: &ShardTask) -> Option<CacheKey> {
    let key = task.key?;
    let mut hasher = DefaultHasher::new();
    hasher.write(&encode(&(&task.spec, task.now, &task.trials)));
    Some((key, hasher.finish()))
}

/// The keyed result cache making reconnect-and-resend idempotent. It
/// keeps each result as the payload it was sent as, so a replay sends
/// the same bytes again without decoding or encoding anything.
#[derive(Default)]
struct ResultCache {
    entries: HashMap<CacheKey, Arc<Vec<u8>>>,
    order: VecDeque<CacheKey>,
}

impl ResultCache {
    fn get(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        self.entries.get(key).cloned()
    }

    fn insert(&mut self, key: CacheKey, payload: Arc<Vec<u8>>) {
        if self.entries.insert(key, payload).is_none() {
            self.order.push_back(key);
            if self.order.len() > RESULT_CACHE_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.entries.remove(&evicted);
                }
            }
        }
    }
}

/// State shared between the accept loop, every session, and the
/// owner's [`HostHandle`]. A worker process owns a private one.
#[derive(Default)]
pub(crate) struct HostShared {
    counters: HostCounters,
    cache: Mutex<ResultCache>,
    stop: AtomicBool,
}

impl HostShared {
    /// The result cache. A session that panicked while holding the lock
    /// left every entry whole (`get` shares, `insert` finishes its own
    /// bookkeeping before anything can unwind), so the poison is
    /// cleared rather than passed on to every later session.
    fn cache(&self) -> MutexGuard<'_, ResultCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> HostStats {
        HostStats {
            sessions: self.counters.sessions.load(Ordering::Relaxed),
            rejects: self.counters.rejects.load(Ordering::Relaxed),
            tasks_executed: self.counters.tasks_executed.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
        }
    }
}

/// A bound-but-not-yet-serving shard host.
pub struct ShardHost {
    listener: TcpListener,
    shared: Arc<HostShared>,
}

impl ShardHost {
    /// Binds the listener. `--listen 127.0.0.1:0` style addresses work:
    /// the kernel-chosen port is readable via
    /// [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(ShardHost {
            listener: TcpListener::bind(addr)?,
            shared: Arc::new(HostShared::default()),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    ///
    /// # Errors
    ///
    /// The socket's address lookup failure, verbatim.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the calling thread — the CLI entry point.
    ///
    /// # Errors
    ///
    /// Only a failure to read the bound address; individual connection
    /// errors are logged to stderr and survived.
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        // The one stdout line, and a parseable one: test harnesses and
        // scripts read the kernel-assigned port from it.
        println!("shard-host listening on {addr}");
        self.accept_loop();
        Ok(())
    }

    /// Serves on a background thread and returns a handle exposing the
    /// address, live counters, and shutdown.
    ///
    /// In-process hosts are for tests and benchmarks of the *happy*
    /// path only: a task carrying `ChaosAction::Kill` takes down the
    /// whole process, which in-process means the test itself. Kill
    /// scenarios must run the host as a child process via the
    /// `shard-host` subcommand.
    ///
    /// # Errors
    ///
    /// Only a failure to read the bound address.
    pub fn spawn(self) -> io::Result<HostHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.accept_loop());
        Ok(HostHandle {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    fn accept_loop(self) {
        for accepted in self.listener.incoming() {
            if self.shared.stop.load(Ordering::Relaxed) {
                return;
            }
            match accepted {
                Ok(stream) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || serve_session(stream, &shared));
                }
                Err(e) => eprintln!("shard-host: accept failed: {e}"),
            }
        }
    }
}

/// A running background host (see [`ShardHost::spawn`]).
pub struct HostHandle {
    addr: SocketAddr,
    shared: Arc<HostShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HostHandle {
    /// The address coordinators should dial.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    #[must_use]
    pub fn stats(&self) -> HostStats {
        self.shared.stats()
    }

    /// Stops the accept loop and joins it. Sessions already in flight
    /// drain on their own threads.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // The loop only observes the flag on its next accept; a throwaway
        // connection wakes it.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for HostHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one coordinator session to completion on the calling thread:
/// handshake, validate the spec, then answer tasks until the socket
/// closes.
fn serve_session(stream: TcpStream, shared: &HostShared) {
    let mut conn = match FramedTcp::from_stream(stream) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("shard-host: session setup failed: {e}");
            return;
        }
    };
    let hello = match conn
        .set_recv_timeout(Some(HANDSHAKE_DEADLINE))
        .and_then(|()| accept_hello(&mut conn))
    {
        Ok(hello) => hello,
        Err(NetError::Rejected(reason)) => {
            shared.counters.rejects.fetch_add(1, Ordering::Relaxed);
            eprintln!("shard-host: rejected a peer: {reason}");
            return;
        }
        Err(e) if e.is_timeout() => {
            shared.counters.rejects.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "shard-host: dropped a peer that sent no hello within {HANDSHAKE_DEADLINE:?}"
            );
            return;
        }
        Err(e) => {
            eprintln!("shard-host: handshake failed: {e}");
            return;
        }
    };
    // The hello's metadata must be a decodable backend spec: a
    // coordinator shipping a vocabulary this host cannot rebuild is
    // turned away with a reason now, not a decode failure mid-rung.
    if let Err(e) = serde_json::from_str::<BackendSpec>(&hello.meta) {
        shared.counters.rejects.fetch_add(1, Ordering::Relaxed);
        let failure = WorkerFailure {
            message: format!("undecodable backend spec in hello: {e}"),
        };
        let _ = conn.send(FrameKind::Error, &encode(&failure));
        conn.shutdown();
        return;
    }
    shared.counters.sessions.fetch_add(1, Ordering::Relaxed);
    eprintln!(
        "shard-host: session open (study seed {}, peer {})",
        hello.study_seed,
        conn.peer_addr()
            .map_or_else(|_| "unknown".to_string(), |a| a.to_string())
    );
    // A session idles between rungs for as long as its study needs, so
    // the handshake deadline goes before the task loop starts, which
    // reads on through the buffer holding any task sent with the hello.
    match conn.set_recv_timeout(None) {
        Ok(()) => {
            let (reader, writer) = conn.halves();
            serve_tasks(reader, writer, shared);
        }
        Err(e) => eprintln!("shard-host: preparing the session socket failed: {e}"),
    }
    conn.shutdown();
}

/// The fabric's one task loop, run by a host session over its socket
/// and by a worker process over its stdin/stdout: read a task, answer
/// it, read the next, until the stream ends — cleanly, torn, or reset.
/// A keyed task whose result is cached replays; any other is measured
/// under `catch_unwind`, and a keyed result is cached before it is
/// sent. Anything but a decodable task frame, and a panicking task,
/// are answered with an error frame and end the loop.
pub(crate) fn serve_tasks<R: Read, W: Write>(mut reader: R, writer: &mut W, shared: &HostShared) {
    loop {
        let task: ShardTask = match read_frame(&mut reader) {
            Ok(Some(frame)) if frame.kind == FrameKind::Task => match decode(&frame.payload) {
                Ok(task) => task,
                Err(e) => return send_error(writer, format!("undecodable task: {e}")),
            },
            Ok(Some(frame)) => {
                return send_error(writer, format!("unexpected {:?} frame", frame.kind))
            }
            Ok(None) | Err(_) => return,
        };
        let slot = cache_key(&task);
        if let Some(slot) = &slot {
            let cached = shared.cache().get(slot);
            if let Some(payload) = cached {
                shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                let key = slot.0;
                eprintln!(
                    "shard-host: replaying cached rung (study {}, bracket {}, rung {}, shard {})",
                    key.study, key.bracket, key.rung, key.shard
                );
                if send_frame(writer, FrameKind::Result, &payload).is_err() {
                    return;
                }
                continue;
            }
        }
        // A panicking task (chaos or a genuine bug) must not take the
        // session down silently: catch it, report it as a structured
        // error, and end the session so the coordinator retries
        // immediately instead of waiting out its deadline.
        let measured = catch_unwind(AssertUnwindSafe(|| {
            execute_task(&task, HEARTBEAT_EVERY, |heartbeat| {
                send_frame(writer, FrameKind::Heartbeat, &encode(&heartbeat))
            })
        }));
        let result = match measured {
            Ok(Ok(result)) => result,
            Ok(Err(_dead_stream)) => return,
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_string());
                return send_error(writer, format!("task execution panicked: {what}"));
            }
        };
        shared
            .counters
            .tasks_executed
            .fetch_add(1, Ordering::Relaxed);
        // Cache first, send second: if the send dies the rung is still
        // replayable for the reconnect that follows.
        let payload = Arc::new(encode(&result));
        if let Some(slot) = slot {
            shared.cache().insert(slot, Arc::clone(&payload));
        }
        if send_frame(writer, FrameKind::Result, &payload).is_err() {
            return;
        }
    }
}

fn send_frame<W: Write>(writer: &mut W, kind: FrameKind, payload: &[u8]) -> Result<(), String> {
    write_frame(writer, kind, payload).map_err(|e| format!("sending {kind:?} frame: {e}"))
}

fn send_error<W: Write>(writer: &mut W, message: String) {
    let failure = WorkerFailure { message };
    let _ = send_frame(writer, FrameKind::Error, &encode(&failure));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SimTrainingBackend, TrainingBackend};
    use crate::fabric::fixtures::{backend, expected_measurements, sample_trials, task_for};
    use crate::fabric::protocol::{ChaosAction, RungScope, ShardResultMsg};
    use edgetune_net::{client_hello, Hello};
    use edgetune_runtime::frame::{encode_frame, Frame};
    use edgetune_util::rng::SeedStream;
    use edgetune_util::units::Seconds;
    use edgetune_workloads::catalog::{Workload, WorkloadId};
    use std::io::Cursor;

    fn key() -> Option<RungKey> {
        Some(
            RungScope {
                study: 11,
                bracket: 0,
                rung: 1,
            }
            .key_for(0),
        )
    }

    fn task_frame(task: &ShardTask) -> Vec<u8> {
        encode_frame(FrameKind::Task, &encode(task))
    }

    fn frames_of(bytes: &[u8]) -> Vec<Frame> {
        let mut cursor = Cursor::new(bytes);
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut cursor).unwrap() {
            frames.push(frame);
        }
        frames
    }

    fn results_of(frames: &[Frame]) -> Vec<ShardResultMsg> {
        frames
            .iter()
            .filter(|frame| frame.kind == FrameKind::Result)
            .map(|frame| decode(&frame.payload).unwrap())
            .collect()
    }

    fn error_of(frame: &Frame) -> String {
        assert_eq!(frame.kind, FrameKind::Error);
        decode::<WorkerFailure>(&frame.payload).unwrap().message
    }

    /// Runs the task loop over in-memory streams, as a worker process
    /// does over its stdin/stdout.
    fn serve(input: Vec<u8>, shared: &HostShared) -> Vec<Frame> {
        let mut output = Vec::new();
        serve_tasks(Cursor::new(input), &mut output, shared);
        frames_of(&output)
    }

    #[test]
    fn the_loop_measures_exactly_what_the_primary_backend_would() {
        let trials = sample_trials(4);
        let now = Seconds::new(123.0);
        let shared = HostShared::default();
        let frames = serve(task_frame(&task_for(&trials, now, None)), &shared);

        // The slice ends long before a heartbeat falls due: the result
        // frame is the whole answer.
        assert_eq!(frames.len(), 1);
        let results = results_of(&frames);
        assert_eq!(results[0].measurements, expected_measurements(&trials, 1));
        assert_eq!(shared.stats().tasks_executed, 1);
    }

    #[test]
    fn the_loop_serves_tasks_until_the_stream_ends() {
        let task = task_frame(&task_for(&sample_trials(2), Seconds::ZERO, None));
        let shared = HostShared::default();
        let frames = serve([task.clone(), task.clone(), task].concat(), &shared);
        assert_eq!(results_of(&frames).len(), 3);
        assert_eq!(shared.stats().tasks_executed, 3);
        assert!(
            serve(Vec::new(), &shared).is_empty(),
            "empty input, no output"
        );
    }

    #[test]
    fn an_identical_resend_replays_but_a_different_task_under_the_same_key_executes() {
        let trials = sample_trials(3);
        let first = task_for(&trials[..2], Seconds::ZERO, key());
        // A resend differs only in what supervision stamps on it.
        let mut resend = first.clone();
        resend.attempt = 2;
        resend.chaos = Some(ChaosAction::Hang);
        // Another study at the same (seed, bracket, rung, shard): same
        // slice length, different trials.
        let other = task_for(&trials[1..], Seconds::ZERO, key());
        assert_eq!(first.trials.len(), other.trials.len());

        let shared = HostShared::default();
        let results = results_of(&serve(
            [task_frame(&first), task_frame(&resend), task_frame(&other)].concat(),
            &shared,
        ));
        assert_eq!(results[0], results[1], "the resend replays");
        assert_eq!(
            results[2].measurements,
            expected_measurements(&trials[1..], 1),
            "the other study gets its own measurements"
        );
        let stats = shared.stats();
        assert_eq!((stats.tasks_executed, stats.cache_hits), (2, 1));

        // Same key and trials, but a different spec or study time: no replay.
        let fresh = HostShared::default();
        let mut respecced = first.clone();
        respecced.spec =
            SimTrainingBackend::new(Workload::by_id(WorkloadId::Sr), SeedStream::new(5))
                .process_spec()
                .unwrap();
        let mut later = first.clone();
        later.now = Seconds::new(1.0);
        serve(
            [
                task_frame(&first),
                task_frame(&respecced),
                task_frame(&later),
            ]
            .concat(),
            &fresh,
        );
        let stats = fresh.stats();
        assert_eq!((stats.tasks_executed, stats.cache_hits), (3, 0));
    }

    #[test]
    fn a_poisoned_cache_lock_still_serves_and_replays_keyed_tasks() {
        let shared = HostShared::default();
        let poisoner = catch_unwind(AssertUnwindSafe(|| {
            let _held = shared.cache.lock();
            panic!("a session died holding the cache lock");
        }));
        assert!(poisoner.is_err());
        assert!(shared.cache.is_poisoned());

        let trials = sample_trials(2);
        let task = task_frame(&task_for(&trials, Seconds::ZERO, key()));
        let results = results_of(&serve([task.clone(), task].concat(), &shared));
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].measurements, expected_measurements(&trials, 1));
        assert_eq!(results[0], results[1], "the resend replays");
        let stats = shared.stats();
        assert_eq!((stats.tasks_executed, stats.cache_hits), (1, 1));
    }

    #[test]
    fn a_panicking_task_is_answered_with_an_error_frame_and_ends_the_session() {
        let mut task = task_for(&sample_trials(2), Seconds::ZERO, None);
        task.chaos = Some(ChaosAction::Panic);
        let mut input = task_frame(&task);
        task.chaos = None;
        input.extend(task_frame(&task));

        let shared = HostShared::default();
        let frames = serve(input, &shared);
        // The structured failure alone — the panic fires right after the
        // first trial, before a heartbeat falls due; the second task is
        // never executed.
        assert_eq!(frames.len(), 1);
        let message = error_of(&frames[0]);
        assert!(message.contains("task execution panicked"), "{message}");
        assert!(message.contains("injected worker panic"), "{message}");
        assert_eq!(shared.stats().tasks_executed, 0);
    }

    #[test]
    fn malformed_input_is_answered_with_an_error_frame() {
        let shared = HostShared::default();
        let frames = serve(
            encode_frame(FrameKind::Task, b"{\"not\": \"a task\"}"),
            &shared,
        );
        assert!(error_of(&frames[0]).contains("undecodable task"));
        let frames = serve(encode_frame(FrameKind::Heartbeat, b"{}"), &shared);
        assert!(error_of(&frames[0]).contains("unexpected Heartbeat frame"));
        // A budget `TrialBudget::new` refuses makes no task either.
        let task = String::from_utf8(encode(&task_for(&sample_trials(1), Seconds::ZERO, None)))
            .expect("the writer writes UTF-8");
        let refused = task.replace(r#""epochs":2.0"#, r#""epochs":-1"#);
        assert_ne!(refused, task);
        let frames = serve(encode_frame(FrameKind::Task, refused.as_bytes()), &shared);
        let message = error_of(&frames[0]);
        assert!(message.starts_with("undecodable task: "), "{message}");
        assert!(message.contains("budget: epochs: "), "{message}");
        // Nor does a workload the catalogue does not hold.
        let unknown = task.replace(r#""workload":"Ic""#, r#""workload":"Asr""#);
        assert_ne!(unknown, task);
        let frames = serve(encode_frame(FrameKind::Task, unknown.as_bytes()), &shared);
        let message = error_of(&frames[0]);
        assert!(message.starts_with("undecodable task: "), "{message}");
        assert!(
            message.contains("spec: workload: unknown variant `Asr`"),
            "{message}"
        );
        assert_eq!(shared.stats().tasks_executed, 0);
    }

    fn connect(handle: &HostHandle) -> FramedTcp {
        let mut conn =
            FramedTcp::connect(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
        let spec = serde_json::to_string(&backend().process_spec().unwrap()).unwrap();
        client_hello(&mut conn, &Hello::new(11, spec)).unwrap();
        conn
    }

    fn recv_result(conn: &mut FramedTcp) -> ShardResultMsg {
        loop {
            let frame = conn.recv().unwrap().expect("session stays open");
            match frame.kind {
                FrameKind::Heartbeat => continue,
                FrameKind::Result => return decode(&frame.payload).unwrap(),
                other => panic!("unexpected {other:?} frame"),
            }
        }
    }

    // The socket tests read `stats()` only after receiving a frame the
    // host sends *after* bumping the counter in question (or, for a
    // rejected peer, after the host dropped the socket), so the asserts
    // cannot race the session thread.

    #[test]
    fn host_executes_a_task_over_a_session() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let trials = sample_trials(3);
        let mut conn = connect(&handle);
        conn.send(
            FrameKind::Task,
            &encode(&task_for(&trials, Seconds::ZERO, None)),
        )
        .unwrap();
        let result = recv_result(&mut conn);
        assert_eq!(result.measurements.len(), 3);
        conn.shutdown();
        handle.shutdown();
        let stats = handle.stats();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.tasks_executed, 1);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn a_task_written_with_the_hello_in_one_write_is_answered() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let trials = sample_trials(2);
        let spec = serde_json::to_string(&backend().process_spec().unwrap()).unwrap();
        let mut bytes = Vec::new();
        edgetune_net::send_hello(&mut bytes, &Hello::new(11, spec)).unwrap();
        bytes.extend(task_frame(&task_for(&trials, Seconds::ZERO, None)));
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(&bytes).unwrap();
        let mut conn = FramedTcp::from_stream(stream).unwrap();
        // A host that lost the task would wait for it forever.
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        edgetune_net::hello_answer(&mut conn).unwrap();
        assert_eq!(recv_result(&mut conn).measurements.len(), 2);
        conn.shutdown();
        handle.shutdown();
        assert_eq!(handle.stats().tasks_executed, 1);
    }

    #[test]
    fn the_result_cache_is_shared_across_sessions() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let task = task_for(&sample_trials(2), Seconds::ZERO, key());

        let mut first = connect(&handle);
        first.send(FrameKind::Task, &encode(&task)).unwrap();
        let first_result = recv_result(&mut first);
        // Simulate a lost session: drop without a clean goodbye, then
        // reconnect and resend the same keyed task.
        first.shutdown();
        drop(first);

        let mut second = connect(&handle);
        second.send(FrameKind::Task, &encode(&task)).unwrap();
        let second_result = recv_result(&mut second);
        assert_eq!(first_result, second_result);

        second.shutdown();
        handle.shutdown();
        let stats = handle.stats();
        assert_eq!(stats.tasks_executed, 1, "the rung must execute once");
        assert_eq!(stats.cache_hits, 1, "the resend must be a replay");
    }

    #[test]
    fn wrong_version_peer_is_rejected_and_counted() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let mut conn =
            FramedTcp::connect(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
        let mut hello = Hello::new(11, "{}");
        hello.version += 1;
        let err = client_hello(&mut conn, &hello).unwrap_err();
        assert!(matches!(err, NetError::Rejected(r) if r.contains("version")));
        // The reject frame leaves before the session bumps its counter;
        // the socket closes after. Wait for the close, not the clock.
        assert!(matches!(conn.recv(), Ok(None) | Err(_)));
        handle.shutdown();
        assert_eq!(handle.stats().rejects, 1);
        assert_eq!(handle.stats().sessions, 0);
    }

    #[test]
    fn undecodable_spec_in_hello_is_rejected_with_a_reason() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        // Nesting this deep once overflowed the parser's stack and
        // aborted the daemon.
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        for meta in ["not a backend spec", deep.as_str()] {
            let mut conn =
                FramedTcp::connect(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
            client_hello(&mut conn, &Hello::new(11, meta)).unwrap();
            let frame = conn.recv().unwrap().expect("an error frame");
            assert!(error_of(&frame).contains("backend spec"));
        }
        // The same daemon still serves a good session.
        let mut conn = connect(&handle);
        conn.send(
            FrameKind::Task,
            &encode(&task_for(&sample_trials(1), Seconds::ZERO, None)),
        )
        .unwrap();
        assert_eq!(recv_result(&mut conn).measurements.len(), 1);
        conn.shutdown();
        handle.shutdown();
        assert_eq!(handle.stats().rejects, 2);
        assert_eq!(handle.stats().sessions, 1);
    }

    #[test]
    fn a_session_answers_pipelined_tasks_in_order() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let mut conn = connect(&handle);
        // Every task is on the wire before the first answer is read, and
        // the first one measures long enough for the rest to arrive
        // behind it; the shard index tells the answers apart.
        let trials = sample_trials(64);
        let tasks: Vec<ShardTask> = (0..64)
            .map(|shard| {
                let slice = if shard == 0 {
                    &trials[..]
                } else {
                    &trials[..1]
                };
                let mut task = task_for(slice, Seconds::ZERO, None);
                task.plan.shard = shard;
                task
            })
            .collect();
        for task in &tasks {
            conn.send(FrameKind::Task, &encode(task)).unwrap();
        }
        for task in &tasks {
            assert_eq!(recv_result(&mut conn).shard, task.plan.shard);
        }
        conn.shutdown();
        handle.shutdown();
        assert_eq!(handle.stats().tasks_executed, 64);
    }

    #[test]
    fn a_peer_that_never_says_hello_is_dropped_at_the_handshake_deadline() {
        let mut handle = ShardHost::bind("127.0.0.1:0").unwrap().spawn().unwrap();
        let mut silent = TcpStream::connect(handle.addr()).unwrap();
        let slack = Duration::from_secs(2);
        silent
            .set_read_timeout(Some(HANDSHAKE_DEADLINE + slack))
            .unwrap();
        let opened = std::time::Instant::now();
        // The host closes without a word: end-of-stream, not our timeout.
        let read = silent.read_to_end(&mut Vec::new());
        assert!(matches!(read, Ok(0)), "the host kept the peer: {read:?}");
        assert!(opened.elapsed() < HANDSHAKE_DEADLINE + slack);
        handle.shutdown();
        assert_eq!(handle.stats().rejects, 1);
        assert_eq!(handle.stats().sessions, 0);
    }

    #[test]
    fn result_cache_evicts_oldest_beyond_capacity() {
        let mut cache = ResultCache::default();
        let scope = RungScope {
            study: 1,
            bracket: 0,
            rung: 0,
        };
        for shard in 0..=RESULT_CACHE_CAP {
            cache.insert(
                (scope.key_for(shard), 0),
                Arc::new(shard.to_le_bytes().to_vec()),
            );
        }
        assert!(
            cache.get(&(scope.key_for(0), 0)).is_none(),
            "oldest evicted"
        );
        assert!(cache.get(&(scope.key_for(RESULT_CACHE_CAP), 0)).is_some());
        assert_eq!(cache.entries.len(), RESULT_CACHE_CAP);
    }
}
