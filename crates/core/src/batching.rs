//! The Batching subcomponent (§3.4, Fig. 8).
//!
//! Two serving scenarios motivate tuning the *inference* batch size:
//!
//! * **Server** — every query carries `N` samples and queries arrive at a
//!   fixed frequency; the question is how to split the `N` samples into
//!   sub-batches ([`ServerScenario`]),
//! * **Multi-stream** — single-sample queries arrive randomly following a
//!   Poisson distribution; aggregating them into batches can improve the
//!   overall mean response time ([`MultiStreamScenario`], a discrete-event
//!   simulation).
//!
//! Both report mean response time per candidate batch size so the
//! Inference Tuning Server can pick the optimum for the deployment's
//! traffic pattern.

use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_util::rng::{sample_exponential, SeedStream};
use edgetune_util::units::Seconds;
use serde::{Deserialize, Serialize};

/// Fixed-frequency queries of `N` samples each (Fig. 8, top).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerScenario {
    /// Samples per query.
    pub samples_per_query: u32,
    /// Inter-arrival period of queries.
    pub period: Seconds,
}

impl ServerScenario {
    /// Creates the scenario.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_query` is zero or the period is not
    /// positive.
    #[must_use]
    pub fn new(samples_per_query: u32, period: Seconds) -> Self {
        assert!(samples_per_query >= 1, "queries must carry samples");
        assert!(period.value() > 0.0, "period must be positive");
        ServerScenario {
            samples_per_query,
            period,
        }
    }

    /// Response time of one query when its samples are processed in
    /// sub-batches of `batch`; `None` when the system is unstable
    /// (processing a query takes longer than the arrival period, so the
    /// backlog grows without bound).
    #[must_use]
    pub fn response_time(
        &self,
        device: &DeviceSpec,
        alloc: &CpuAllocation,
        profile: &WorkProfile,
        batch: u32,
    ) -> Option<Seconds> {
        let batch = batch.clamp(1, self.samples_per_query);
        let full_batches = self.samples_per_query / batch;
        let remainder = self.samples_per_query % batch;
        let mut total = simulate_inference(device, alloc, profile, batch)
            .latency
            .value()
            * f64::from(full_batches);
        if remainder > 0 {
            total += simulate_inference(device, alloc, profile, remainder)
                .latency
                .value();
        }
        if total > self.period.value() {
            None
        } else {
            Some(Seconds::new(total))
        }
    }

    /// The sub-batch size minimising response time among `candidates`
    /// (only stable ones qualify).
    #[must_use]
    pub fn optimal_batch(
        &self,
        device: &DeviceSpec,
        alloc: &CpuAllocation,
        profile: &WorkProfile,
        candidates: &[u32],
    ) -> Option<(u32, Seconds)> {
        candidates
            .iter()
            .filter_map(|&b| {
                self.response_time(device, alloc, profile, b)
                    .map(|t| (b, t))
            })
            .min_by(|a, b| {
                a.1.value()
                    .partial_cmp(&b.1.value())
                    .expect("finite latencies")
            })
    }
}

/// Statistics of one simulated multi-stream run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Mean response time (completion − arrival) over all samples.
    pub mean_response: Seconds,
    /// Number of batches the server executed.
    pub batches_served: u64,
    /// Mean samples per executed batch.
    pub mean_batch_size: f64,
}

/// Poisson single-sample arrivals aggregated into batches (Fig. 8,
/// bottom).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiStreamScenario {
    /// Mean arrival rate in samples per second.
    pub rate: f64,
    /// Number of arrivals to simulate.
    pub arrivals: usize,
}

impl MultiStreamScenario {
    /// Creates the scenario.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive or `arrivals` is zero.
    #[must_use]
    pub fn new(rate: f64, arrivals: usize) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        assert!(arrivals >= 1, "need at least one arrival");
        MultiStreamScenario { rate, arrivals }
    }

    /// Mean response time (completion − arrival) under the greedy
    /// aggregation policy — whenever the server is free it takes every
    /// queued sample (up to `batch_cap`) and runs them as one batch:
    /// [`simulate_with_timeout`](Self::simulate_with_timeout), no wait.
    ///
    /// # Panics
    ///
    /// Panics if `batch_cap` is zero.
    #[must_use]
    pub fn mean_response_time(
        &self,
        device: &DeviceSpec,
        alloc: &CpuAllocation,
        profile: &WorkProfile,
        batch_cap: u32,
        seed: SeedStream,
    ) -> Seconds {
        self.simulate_with_timeout(device, alloc, profile, batch_cap, Seconds::ZERO, seed)
            .mean_response
    }

    /// Simulates a **batch-or-timeout** policy: the server waits for up
    /// to `max_wait` after the oldest queued sample arrived (or until
    /// `batch_cap` samples are ready, whichever happens first) before
    /// running the batch. `max_wait = 0` is the greedy policy, to the
    /// bit. Returns full queue statistics.
    ///
    /// # Panics
    ///
    /// Panics if `batch_cap` is zero or `max_wait` is negative.
    #[must_use]
    pub fn simulate_with_timeout(
        &self,
        device: &DeviceSpec,
        alloc: &CpuAllocation,
        profile: &WorkProfile,
        batch_cap: u32,
        max_wait: Seconds,
        seed: SeedStream,
    ) -> QueueStats {
        assert!(batch_cap >= 1, "batch cap must be >= 1");
        assert!(max_wait.value() >= 0.0, "max wait must be non-negative");
        let mut rng = seed.rng("multi-stream-arrivals");
        let mut t = 0.0;
        let arrivals: Vec<f64> = (0..self.arrivals)
            .map(|_| {
                t += sample_exponential(&mut rng, self.rate);
                t
            })
            .collect();

        let mut latency_cache: Vec<Option<f64>> = vec![None; batch_cap as usize + 1];
        let mut service = |size: u32| -> f64 {
            let slot = &mut latency_cache[size as usize];
            *slot.get_or_insert_with(|| {
                simulate_inference(device, alloc, profile, size)
                    .latency
                    .value()
            })
        };

        let mut response_sum = 0.0;
        let mut free_at = 0.0f64;
        let mut next = 0usize;
        let mut batches = 0u64;
        while next < arrivals.len() {
            let anchor = arrivals[next];
            let deadline = anchor + max_wait.value();
            // When would the cap-th sample (counting from the oldest
            // waiting one) arrive?
            let fill_time = arrivals
                .get(next + batch_cap as usize - 1)
                .copied()
                .unwrap_or(f64::INFINITY);
            let start = free_at.max(deadline.min(fill_time)).max(anchor);
            let mut size = 0u32;
            while next < arrivals.len() && arrivals[next] <= start && size < batch_cap {
                size += 1;
                next += 1;
            }
            debug_assert!(size >= 1, "the anchor sample has arrived by `start`");
            let completion = start + service(size);
            for &arrival in &arrivals[next - size as usize..next] {
                response_sum += completion - arrival;
            }
            batches += 1;
            free_at = completion;
        }
        QueueStats {
            mean_response: Seconds::new(response_sum / self.arrivals as f64),
            batches_served: batches,
            mean_batch_size: self.arrivals as f64 / batches as f64,
        }
    }

    /// The batch cap minimising mean response time among `candidates`.
    #[must_use]
    pub fn optimal_batch_cap(
        &self,
        device: &DeviceSpec,
        alloc: &CpuAllocation,
        profile: &WorkProfile,
        candidates: &[u32],
        seed: SeedStream,
    ) -> Option<(u32, Seconds)> {
        candidates
            .iter()
            .map(|&cap| {
                (
                    cap,
                    self.mean_response_time(device, alloc, profile, cap, seed),
                )
            })
            .min_by(|a, b| a.1.value().partial_cmp(&b.1.value()).expect("finite times"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DeviceSpec, CpuAllocation, WorkProfile) {
        let device = DeviceSpec::raspberry_pi_3b();
        let alloc = CpuAllocation::full(&device);
        let profile = WorkProfile::new(0.56e9, 3.0e6, 44.8e6);
        (device, alloc, profile)
    }

    /// The greedy policy written on its own, as the reference the
    /// timeout form's `max_wait = 0` case is held to: whenever the
    /// server is free it takes every queued sample up to `batch_cap`.
    fn greedy_mean_response_time(
        scenario: &MultiStreamScenario,
        device: &DeviceSpec,
        alloc: &CpuAllocation,
        profile: &WorkProfile,
        batch_cap: u32,
        seed: SeedStream,
    ) -> Seconds {
        // Pre-draw the Poisson arrival times.
        let mut rng = seed.rng("multi-stream-arrivals");
        let mut t = 0.0;
        let arrivals: Vec<f64> = (0..scenario.arrivals)
            .map(|_| {
                t += sample_exponential(&mut rng, scenario.rate);
                t
            })
            .collect();

        // Memoised per-batch-size service latency.
        let mut latency_cache: Vec<Option<f64>> = vec![None; batch_cap as usize + 1];
        let mut service = |size: u32| -> f64 {
            let slot = &mut latency_cache[size as usize];
            *slot.get_or_insert_with(|| {
                simulate_inference(device, alloc, profile, size)
                    .latency
                    .value()
            })
        };

        let mut response_sum = 0.0;
        let mut served = 0usize;
        let mut free_at = 0.0f64;
        let mut next = 0usize;
        while next < arrivals.len() {
            // Server becomes free; batch up everything that has arrived.
            let start = free_at.max(arrivals[next]);
            let mut size = 0u32;
            while next < arrivals.len() && arrivals[next] <= start && size < batch_cap {
                size += 1;
                next += 1;
            }
            let completion = start + service(size);
            for &arrival in &arrivals[next - size as usize..next] {
                response_sum += completion - arrival;
            }
            served += size as usize;
            free_at = completion;
        }
        Seconds::new(response_sum / served as f64)
    }

    #[test]
    fn server_scenario_prefers_batched_splits() {
        let (device, alloc, profile) = setup();
        // 64-sample queries every 30 s.
        let scenario = ServerScenario::new(64, Seconds::new(30.0));
        let single = scenario.response_time(&device, &alloc, &profile, 1);
        let batched = scenario.response_time(&device, &alloc, &profile, 16);
        match (single, batched) {
            (Some(s), Some(b)) => assert!(b < s, "batching must win: {s} vs {b}"),
            (None, Some(_)) => {} // single-sample split is not even stable
            other => panic!("unexpected stability pattern: {other:?}"),
        }
    }

    #[test]
    fn server_scenario_detects_instability() {
        let (device, alloc, profile) = setup();
        // 64-sample queries every 100 ms cannot be served by a Pi.
        let scenario = ServerScenario::new(64, Seconds::new(0.1));
        assert_eq!(scenario.response_time(&device, &alloc, &profile, 16), None);
        assert!(scenario
            .optimal_batch(&device, &alloc, &profile, &[1, 8, 16, 32, 64])
            .is_none());
    }

    #[test]
    fn server_optimal_batch_is_argmin() {
        let (device, alloc, profile) = setup();
        let scenario = ServerScenario::new(32, Seconds::new(60.0));
        let candidates = [1, 2, 4, 8, 16, 32];
        let (best, best_t) = scenario
            .optimal_batch(&device, &alloc, &profile, &candidates)
            .expect("stable at 60s period");
        for &c in &candidates {
            if let Some(t) = scenario.response_time(&device, &alloc, &profile, c) {
                assert!(best_t <= t, "batch {best} must be optimal");
            }
        }
    }

    #[test]
    fn server_remainder_batches_are_processed() {
        let (device, alloc, profile) = setup();
        // 10 samples split as 3+3+3+1.
        let scenario = ServerScenario::new(10, Seconds::new(60.0));
        let t3 = scenario
            .response_time(&device, &alloc, &profile, 3)
            .unwrap();
        let batch3 = simulate_inference(&device, &alloc, &profile, 3).latency;
        let batch1 = simulate_inference(&device, &alloc, &profile, 1).latency;
        let expected = batch3 * 3.0 + batch1;
        assert!((t3.value() - expected.value()).abs() < 1e-9);
    }

    #[test]
    fn multi_stream_batching_beats_single_under_load() {
        let (device, alloc, profile) = setup();
        // Arrival rate beyond single-sample service capacity: only
        // aggregation keeps latency bounded (the paper's motivating
        // observation).
        let single_thpt = 1.0
            / simulate_inference(&device, &alloc, &profile, 1)
                .latency
                .value();
        let scenario = MultiStreamScenario::new(single_thpt * 2.0, 400);
        let seed = SeedStream::new(5);
        let single = scenario.mean_response_time(&device, &alloc, &profile, 1, seed);
        let batched = scenario.mean_response_time(&device, &alloc, &profile, 32, seed);
        assert!(
            batched.value() < single.value() * 0.5,
            "aggregation must tame the backlog: {single} vs {batched}"
        );
    }

    #[test]
    fn multi_stream_light_load_needs_no_batching() {
        let (device, alloc, profile) = setup();
        // Very light traffic: every sample is served alone either way.
        let scenario = MultiStreamScenario::new(0.05, 100);
        let seed = SeedStream::new(6);
        let single = scenario.mean_response_time(&device, &alloc, &profile, 1, seed);
        let capped = scenario.mean_response_time(&device, &alloc, &profile, 16, seed);
        let ratio = capped.value() / single.value();
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "light load is batching-insensitive: {ratio}"
        );
    }

    #[test]
    fn multi_stream_is_reproducible() {
        let (device, alloc, profile) = setup();
        let scenario = MultiStreamScenario::new(5.0, 200);
        let a = scenario.mean_response_time(&device, &alloc, &profile, 8, SeedStream::new(7));
        let b = scenario.mean_response_time(&device, &alloc, &profile, 8, SeedStream::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn multi_stream_optimal_cap_is_argmin() {
        let (device, alloc, profile) = setup();
        let scenario = MultiStreamScenario::new(20.0, 300);
        let seed = SeedStream::new(8);
        let candidates = [1, 4, 16, 64];
        let (cap, t) = scenario
            .optimal_batch_cap(&device, &alloc, &profile, &candidates, seed)
            .unwrap();
        assert!(candidates.contains(&cap));
        for &c in &candidates {
            let other = scenario.mean_response_time(&device, &alloc, &profile, c, seed);
            assert!(t.value() <= other.value() + 1e-12);
        }
    }

    #[test]
    fn timeout_zero_matches_the_greedy_policy() {
        let (device, alloc, profile) = setup();
        for rate in [0.05, 1.0, 5.0, 10.0, 20.0, 50.0, 200.0] {
            for arrivals in [1, 2, 37, 300] {
                let scenario = MultiStreamScenario::new(rate, arrivals);
                for cap in [1, 2, 8, 16, 64] {
                    for seed in [2, 4, 9].map(SeedStream::new) {
                        let greedy = greedy_mean_response_time(
                            &scenario, &device, &alloc, &profile, cap, seed,
                        );
                        let timed = scenario.simulate_with_timeout(
                            &device,
                            &alloc,
                            &profile,
                            cap,
                            Seconds::ZERO,
                            seed,
                        );
                        assert_eq!(
                            timed.mean_response.value().to_bits(),
                            greedy.value().to_bits(),
                            "rate {rate}, {arrivals} arrivals, cap {cap}: {greedy} vs {}",
                            timed.mean_response
                        );
                        let delegated =
                            scenario.mean_response_time(&device, &alloc, &profile, cap, seed);
                        assert_eq!(delegated, timed.mean_response);
                    }
                }
            }
        }
    }

    #[test]
    fn waiting_longer_builds_larger_batches() {
        let (device, alloc, profile) = setup();
        let scenario = MultiStreamScenario::new(5.0, 400);
        let seed = SeedStream::new(9);
        let quick =
            scenario.simulate_with_timeout(&device, &alloc, &profile, 32, Seconds::new(0.01), seed);
        let patient =
            scenario.simulate_with_timeout(&device, &alloc, &profile, 32, Seconds::new(2.0), seed);
        assert!(
            patient.mean_batch_size > quick.mean_batch_size,
            "a longer window must aggregate more: {} vs {}",
            quick.mean_batch_size,
            patient.mean_batch_size
        );
        assert!(patient.batches_served < quick.batches_served);
    }

    #[test]
    fn batch_cap_bounds_every_batch() {
        let (device, alloc, profile) = setup();
        let scenario = MultiStreamScenario::new(50.0, 500);
        let stats = scenario.simulate_with_timeout(
            &device,
            &alloc,
            &profile,
            8,
            Seconds::new(10.0),
            SeedStream::new(2),
        );
        assert!(stats.mean_batch_size <= 8.0 + 1e-9);
        assert!(stats.batches_served >= (500 / 8) as u64);
    }

    #[test]
    #[should_panic(expected = "batch cap")]
    fn zero_cap_rejected() {
        let (device, alloc, profile) = setup();
        let scenario = MultiStreamScenario::new(1.0, 10);
        let _ = scenario.mean_response_time(&device, &alloc, &profile, 0, SeedStream::new(1));
    }
}
