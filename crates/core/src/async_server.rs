//! Asynchronous execution of the Inference Tuning Server.
//!
//! Algorithm 1 calls the inference server with `async` semantics: the
//! Model Tuning Server fires a request when a trial *starts* and collects
//! the answer when the trial *ends*, so inference tuning is pipelined with
//! training and "does not add any overhead to the main process" (§3.3).
//! This module provides that middleware plumbing: one dedicated worker
//! thread owning the [`InferenceTuningServer`] and the
//! [`HistoricalCache`], fed through crossbeam channels.
//!
//! Under a sharded study (`study_shards > 1`) this server is the one
//! cross-shard channel: every engine shard measures its rung slice in
//! isolation, but all of them submit their inference requests here, so
//! Algorithm 1's memoisation — one sweep per architecture, ever —
//! survives sharding intact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use edgetune_device::profile::WorkProfile;
use edgetune_faults::FaultInjector;
use edgetune_util::units::{Joules, Seconds};
use edgetune_util::{Error, Result};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, HistoricalCache};
use crate::checkpoint::StudyGlobals;
use crate::inference::{InferenceRecommendation, InferenceTuningServer};

/// The answer to one inference-tuning request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReply {
    /// The deployment recommendation for the requested architecture.
    pub recommendation: InferenceRecommendation,
    /// Simulated duration the tuning sweep took (zero on a cache hit).
    pub runtime: Seconds,
    /// Simulated energy the tuning sweep consumed (zero on a cache hit).
    pub energy: Joules,
    /// Whether the answer came from the historical database.
    pub cache_hit: bool,
}

struct Request {
    key: CacheKey,
    profile: WorkProfile,
    reply: Sender<InferenceReply>,
    /// Submission sequence number — the stable index fault decisions are
    /// keyed by, so injected chaos is independent of worker scheduling.
    seq: u64,
}

/// Shared per-server fault counters (observability for chaos runs).
#[derive(Debug, Default)]
struct FaultCounters {
    /// Real panics caught (and survived) by the worker supervision loop.
    panics: AtomicU64,
    /// Requests dropped by injected worker deaths.
    injected_losses: AtomicU64,
    /// Sweeps delayed by injected transient device outages.
    injected_outages: AtomicU64,
}

/// A handle to an in-flight inference-tuning request.
#[derive(Debug)]
pub struct PendingReply {
    rx: Receiver<InferenceReply>,
}

impl PendingReply {
    /// Blocks until the reply arrives.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Channel`] if the server shut down before
    /// answering.
    pub fn wait(&self) -> Result<InferenceReply> {
        self.rx
            .recv()
            .map_err(|_| Error::channel("inference server disconnected"))
    }

    /// Waits up to `timeout` for the reply.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Channel`] on timeout or disconnect.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<InferenceReply> {
        self.rx
            .recv_timeout(timeout)
            .map_err(|e| Error::channel(format!("inference reply: {e}")))
    }

    /// Non-blocking poll.
    #[must_use]
    pub fn try_wait(&self) -> Option<InferenceReply> {
        self.rx.try_recv().ok()
    }
}

/// The asynchronous Inference Tuning Server: a background worker thread
/// plus the shared historical cache.
///
/// # Examples
///
/// ```
/// use edgetune::async_server::AsyncInferenceServer;
/// use edgetune::cache::{CacheKey, HistoricalCache};
/// use edgetune::inference::{InferenceSpace, InferenceTuningServer};
/// use edgetune_device::{DeviceSpec, WorkProfile};
/// use edgetune_tuner::objective::InferenceObjective;
/// use edgetune_tuner::Metric;
///
/// let device = DeviceSpec::raspberry_pi_3b();
/// let space = InferenceSpace::for_device(&device);
/// let inner = InferenceTuningServer::new(device, space, InferenceObjective::new(Metric::Runtime))?;
/// let server = AsyncInferenceServer::start(inner, HistoricalCache::new());
/// let key = CacheKey::new("Raspberry Pi 3B+", "ResNet/layers=18", Metric::Runtime);
/// let pending = server.submit(key, WorkProfile::new(0.56e9, 3.0e6, 44.8e6));
/// let reply = pending.wait()?;
/// assert!(!reply.cache_hit);
/// # Ok::<(), edgetune_util::Error>(())
/// ```
#[derive(Debug)]
pub struct AsyncInferenceServer {
    tx: Option<Sender<Request>>,
    worker: Option<JoinHandle<()>>,
    cache: Arc<Mutex<HistoricalCache>>,
    counters: Arc<FaultCounters>,
    next_seq: AtomicU64,
}

impl AsyncInferenceServer {
    /// Spawns the server with the historical cache enabled — the paper's
    /// configuration.
    #[must_use]
    pub fn start(server: InferenceTuningServer, cache: HistoricalCache) -> Self {
        Self::start_supervised(server, cache, true, None, &StudyGlobals::default())
    }

    /// Spawns the server with explicit options: whether the historical
    /// cache is consulted (`caching = false` is the ablation of §3.4's
    /// look-up feature), a fault injector (chaos runs), and the study
    /// state to pick up from — a resumed server continues the request
    /// sequence and the injected-fault tallies where `resumed` left
    /// them.
    #[must_use]
    pub fn start_supervised(
        server: InferenceTuningServer,
        cache: HistoricalCache,
        caching: bool,
        faults: Option<FaultInjector>,
        resumed: &StudyGlobals,
    ) -> Self {
        let cache = Arc::new(Mutex::new(cache));
        let counters = Arc::new(FaultCounters {
            injected_losses: AtomicU64::new(resumed.injected_losses),
            injected_outages: AtomicU64::new(resumed.injected_outages),
            ..FaultCounters::default()
        });
        let (tx, rx) = unbounded::<Request>();
        let worker = {
            let cache = Arc::clone(&cache);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("inference-tuning-server".to_string())
                .spawn(move || {
                    Self::worker_loop(&rx, &server, &cache, caching, faults.as_ref(), &counters);
                })
                .expect("spawning inference server thread")
        };
        AsyncInferenceServer {
            tx: Some(tx),
            worker: Some(worker),
            cache,
            counters,
            next_seq: AtomicU64::new(resumed.inference_cursor),
        }
    }

    /// The supervised worker body: a real panic in request handling is
    /// caught and counted instead of killing the thread, so the worker
    /// slot effectively respawns for the next request (the requester of
    /// the poisoned request sees a dropped reply channel and degrades).
    fn worker_loop(
        rx: &Receiver<Request>,
        server: &InferenceTuningServer,
        cache: &Mutex<HistoricalCache>,
        caching: bool,
        faults: Option<&FaultInjector>,
        counters: &FaultCounters,
    ) {
        loop {
            let Ok(request) = rx.recv() else {
                break; // channel closed: orderly shutdown
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(injector) = faults {
                    if injector.worker_panic(request.seq) {
                        // Simulated worker death mid-request: the request
                        // (and its reply sender) is dropped without an
                        // answer, exactly what the requester of a panicked
                        // worker observes — minus the stderr backtrace.
                        counters.injected_losses.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                let mut reply = Self::handle(server, cache, &request, caching);
                if let Some(injector) = faults {
                    if !reply.cache_hit {
                        if let Some(outage) = injector.device_outage(request.seq) {
                            // Transient device unavailability: the sweep
                            // is retried once the device returns, so its
                            // effective runtime stretches by the outage.
                            reply.runtime += outage;
                            counters.injected_outages.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // The requester may have gone away; that is fine.
                let _ = request.reply.send(reply);
            }));
            if outcome.is_err() {
                counters.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn handle(
        server: &InferenceTuningServer,
        cache: &Mutex<HistoricalCache>,
        request: &Request,
        caching: bool,
    ) -> InferenceReply {
        if caching {
            if let Some(hit) = cache.lock().lookup(&request.key) {
                return InferenceReply {
                    recommendation: hit,
                    runtime: Seconds::ZERO,
                    energy: Joules::ZERO,
                    cache_hit: true,
                };
            }
        } else {
            cache.lock().note_miss();
        }
        let (recommendation, cost) = server.tune(&request.profile);
        if caching {
            cache.lock().store(&request.key, recommendation.clone());
        }
        InferenceReply {
            recommendation,
            runtime: cost.runtime,
            energy: cost.energy,
            cache_hit: false,
        }
    }

    /// Submits an architecture for inference tuning; returns immediately.
    ///
    /// # Panics
    ///
    /// Panics if called after [`AsyncInferenceServer::shutdown`] (the
    /// handle is consumed there, so this cannot happen in safe use).
    #[must_use]
    pub fn submit(&self, key: CacheKey, profile: WorkProfile) -> PendingReply {
        self.try_submit(key, profile)
            .expect("worker thread alive while handle exists")
    }

    /// Like [`AsyncInferenceServer::submit`], but returns `None` instead
    /// of panicking if every worker is gone — the degradation ladder's
    /// retry rung uses this so a resubmission can never crash the Model
    /// Tuning Server.
    #[must_use]
    pub fn try_submit(&self, key: CacheKey, profile: WorkProfile) -> Option<PendingReply> {
        let (reply_tx, reply_rx) = unbounded();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.tx
            .as_ref()
            .expect("server is running")
            .send(Request {
                key,
                profile,
                reply: reply_tx,
                seq,
            })
            .ok()?;
        Some(PendingReply { rx: reply_rx })
    }

    /// Closes the request channel and joins the worker, which drains
    /// what is queued first. Idempotent.
    fn stop(&mut self) {
        self.tx = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }

    /// Writes the server's share of the study state — the cache and its
    /// counters, the request cursor, the injected-fault tallies — into
    /// `globals`: the inverse of what
    /// [`AsyncInferenceServer::start_supervised`] picks up.
    pub fn record_into(&self, globals: &mut StudyGlobals) {
        globals.cache = self.cache_snapshot();
        globals.cache_stats = globals.cache.stats();
        globals.inference_cursor = self.submitted();
        globals.injected_losses = self.injected_losses();
        globals.injected_outages = self.injected_outages();
    }

    /// A snapshot of the historical cache.
    #[must_use]
    pub fn cache_snapshot(&self) -> HistoricalCache {
        self.cache.lock().clone()
    }

    /// The cache's current hit/miss counters, read without cloning the
    /// entry table. This is the single tally both trace counter events
    /// and study checkpoints read, so the numbers can never diverge.
    #[must_use]
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.lock().stats()
    }

    /// Reads a cache entry without touching statistics — the stale-cache
    /// rung of the degradation ladder.
    #[must_use]
    pub fn peek(&self, key: &CacheKey) -> Option<InferenceRecommendation> {
        self.cache.lock().peek(key).cloned()
    }

    /// Requests submitted so far — the inference-side fault cursor a
    /// study checkpoint stores.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Real worker panics caught by the supervision loop.
    #[must_use]
    pub fn worker_panics(&self) -> u64 {
        self.counters.panics.load(Ordering::Relaxed)
    }

    /// Requests dropped by injected worker deaths.
    #[must_use]
    pub fn injected_losses(&self) -> u64 {
        self.counters.injected_losses.load(Ordering::Relaxed)
    }

    /// Sweeps delayed by injected device outages.
    #[must_use]
    pub fn injected_outages(&self) -> u64 {
        self.counters.injected_outages.load(Ordering::Relaxed)
    }

    /// Stops the worker (draining queued requests first) and returns
    /// the final cache.
    #[must_use]
    pub fn shutdown(mut self) -> HistoricalCache {
        self.stop();
        let cache = Arc::clone(&self.cache);
        drop(self);
        match Arc::try_unwrap(cache) {
            Ok(mutex) => mutex.into_inner(),
            Err(shared) => shared.lock().clone(),
        }
    }
}

impl Drop for AsyncInferenceServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::InferenceSpace;
    use edgetune_device::spec::DeviceSpec;
    use edgetune_tuner::objective::InferenceObjective;
    use edgetune_tuner::Metric;

    fn start() -> AsyncInferenceServer {
        let device = DeviceSpec::raspberry_pi_3b();
        let space = InferenceSpace::for_device(&device);
        let inner =
            InferenceTuningServer::new(device, space, InferenceObjective::new(Metric::Runtime))
                .unwrap();
        AsyncInferenceServer::start(inner, HistoricalCache::new())
    }

    fn key(arch: &str) -> CacheKey {
        CacheKey::new("Raspberry Pi 3B+", arch, Metric::Runtime)
    }

    fn profile() -> WorkProfile {
        WorkProfile::new(0.56e9, 3.0e6, 44.8e6)
    }

    #[test]
    fn first_request_misses_second_hits() {
        let server = start();
        let first = server
            .submit(key("ResNet/layers=18"), profile())
            .wait()
            .unwrap();
        assert!(!first.cache_hit);
        assert!(first.runtime.value() > 0.0);
        let second = server
            .submit(key("ResNet/layers=18"), profile())
            .wait()
            .unwrap();
        assert!(
            second.cache_hit,
            "same architecture must be served from history"
        );
        assert_eq!(second.runtime, Seconds::ZERO);
        assert_eq!(second.recommendation, first.recommendation);
    }

    #[test]
    fn duplicate_inflight_requests_converge_to_one_computation() {
        let server = start();
        // Two requests for the same architecture before either completes:
        // the worker serialises them, so the second is a cache hit.
        let a = server.submit(key("ResNet/layers=34"), profile());
        let b = server.submit(key("ResNet/layers=34"), profile());
        let ra = a.wait().unwrap();
        let rb = b.wait().unwrap();
        assert!(!ra.cache_hit);
        assert!(rb.cache_hit);
    }

    #[test]
    fn different_architectures_are_tuned_separately() {
        let server = start();
        let light = server.submit(key("light"), profile()).wait().unwrap();
        let heavy = server
            .submit(key("heavy"), WorkProfile::new(8.5e9, 30.0e6, 246.0e6))
            .wait()
            .unwrap();
        assert!(!light.cache_hit && !heavy.cache_hit);
        assert!(heavy.recommendation.throughput.value() < light.recommendation.throughput.value());
        assert_eq!(server.cache_snapshot().len(), 2);
    }

    #[test]
    fn pipelining_requests_overlap() {
        let server = start();
        // Fire several requests without waiting — the model server's
        // pattern — then collect them all.
        let pendings: Vec<PendingReply> = (0..4)
            .map(|i| server.submit(key(&format!("arch-{i}")), profile()))
            .collect();
        for p in pendings {
            // `wait` blocks on channel signaling (no polling deadline):
            // it returns as soon as the worker replies or errors as soon
            // as the reply sender is dropped, so the test never sits on a
            // wall-clock timeout.
            let reply = p.wait().unwrap();
            assert!(reply.recommendation.throughput.value() > 0.0);
        }
    }

    #[test]
    fn try_wait_is_nonblocking() {
        let server = start();
        let pending = server.submit(key("slow"), profile());
        // May or may not be ready instantly; both are valid — the call
        // just must not block. When it *is* ready, `try_wait` receives
        // (and thereby consumes) the reply, so fall back to `wait` only
        // in the not-ready case.
        let reply = match pending.try_wait() {
            Some(reply) => reply,
            None => pending.wait().unwrap(),
        };
        assert!(reply.recommendation.batch >= 1);
    }

    #[test]
    fn shutdown_returns_populated_cache() {
        let server = start();
        server.submit(key("a"), profile()).wait().unwrap();
        let cache = server.shutdown();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let server = start();
        let pending = server.submit(key("queued"), profile());
        let cache = server.shutdown();
        assert_eq!(
            cache.len(),
            1,
            "queued request must be processed before exit"
        );
        let reply = pending.wait().unwrap();
        assert!(!reply.cache_hit);
    }

    fn start_supervised(plan: edgetune_faults::FaultPlan) -> AsyncInferenceServer {
        use edgetune_util::rng::SeedStream;
        let device = DeviceSpec::raspberry_pi_3b();
        let space = InferenceSpace::for_device(&device);
        let inner =
            InferenceTuningServer::new(device, space, InferenceObjective::new(Metric::Runtime))
                .unwrap();
        AsyncInferenceServer::start_supervised(
            inner,
            HistoricalCache::new(),
            true,
            Some(FaultInjector::new(plan, SeedStream::new(77))),
            &StudyGlobals::default(),
        )
    }

    #[test]
    fn injected_worker_death_drops_the_reply_but_not_the_server() {
        use edgetune_faults::FaultPlan;
        // Every request's worker dies: the requester times out, yet the
        // server keeps accepting and the process survives.
        let server = start_supervised(FaultPlan::none().with_worker_panic(1.0));
        let pending = server.submit(key("doomed"), profile());
        // An injected death drops the reply sender, so `wait` fails via
        // channel disconnect immediately — no 500 ms wall-clock stall.
        assert!(pending.wait().is_err());
        assert_eq!(server.injected_losses(), 1);
        // The worker slot survived the injected death.
        let second = server.submit(key("also-doomed"), profile());
        assert!(second.wait().is_err());
        assert_eq!(server.injected_losses(), 2);
        assert_eq!(server.submitted(), 2);
    }

    #[test]
    fn injected_outage_stretches_the_sweep_runtime() {
        use edgetune_faults::FaultPlan;
        let plan = FaultPlan {
            device_outage: 1.0,
            outage_duration_s: 30.0,
            ..FaultPlan::none()
        };
        let server = start_supervised(plan);
        let first = server.submit(key("a"), profile()).wait().unwrap();
        assert!(
            first.runtime.value() >= 30.0,
            "the outage must extend the sweep: {}",
            first.runtime
        );
        assert_eq!(server.injected_outages(), 1);
        // Cache hits never touch the device, so they see no outage.
        let hit = server.submit(key("a"), profile()).wait().unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.runtime, Seconds::ZERO);
        assert_eq!(server.injected_outages(), 1);
    }

    #[test]
    fn cache_stats_accessor_matches_the_snapshot_tally() {
        let server = start();
        server.submit(key("a"), profile()).wait().unwrap();
        server.submit(key("a"), profile()).wait().unwrap();
        let stats = server.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(server.cache_snapshot().stats(), stats);
    }

    #[test]
    fn unsupervised_server_reports_zero_fault_counters() {
        let server = start();
        let _ = server.submit(key("a"), profile()).wait().unwrap();
        assert_eq!(server.worker_panics(), 0);
        assert_eq!(server.injected_losses(), 0);
        assert_eq!(server.injected_outages(), 0);
    }
}
