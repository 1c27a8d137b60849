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
//!   simulation of the greedy policy: whenever the server is free it runs
//!   every queued sample, up to the batch cap, as one batch).
//!
//! A [`ScenarioRetuner`](crate::scenario::ScenarioRetuner) sweeps each
//! candidate batch size's mean response time under either model to pick
//! the optimum for the deployment's traffic pattern.

use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_util::rng::{sample_exponential, SeedStream};
use edgetune_util::units::Seconds;

/// Fixed-frequency queries of `N` samples each (Fig. 8, top).
#[derive(Debug, Clone, Copy, PartialEq)]
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
}

/// Statistics of one simulated multi-stream run.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// The Poisson arrival times of one run under `seed`. Every candidate
    /// a sweep compares replays the same draw.
    pub(crate) fn draw_arrivals(&self, seed: SeedStream) -> Vec<f64> {
        let mut rng = seed.rng("multi-stream-arrivals");
        let mut t = 0.0;
        (0..self.arrivals)
            .map(|_| {
                t += sample_exponential(&mut rng, self.rate);
                t
            })
            .collect()
    }
}

/// The greedy aggregation queue of a multi-stream run over sorted
/// `arrivals`: whenever the server is free it takes every queued sample
/// (up to `batch_cap`) and runs them as one batch, whose latency is
/// `service(size)`.
///
/// Also returns whether the cap ever *bound*: some batch stopped at the
/// cap while a further sample was already waiting at its start. A cap
/// that never bound forms every batch as an unlimited one would, so each
/// larger cap replays the same trajectory, bit for bit.
///
/// # Panics
///
/// Panics if `batch_cap` is zero.
// Kept out of line: where codegen inlined it into a re-tune's sweep, the
// serve-des benchmark ran 15–20 % slower (2 vCPUs, release).
#[inline(never)]
pub(crate) fn replay(
    arrivals: &[f64],
    batch_cap: u32,
    service: &mut impl FnMut(u32) -> f64,
) -> (QueueStats, bool) {
    assert!(batch_cap >= 1, "batch cap must be >= 1");
    let mut response_sum = 0.0;
    let mut free_at = 0.0f64;
    let mut next = 0usize;
    let mut batches = 0u64;
    let mut bound = false;
    while next < arrivals.len() {
        // The server takes the oldest waiting sample as soon as both
        // are ready, and everything else that has arrived by then.
        let start = free_at.max(arrivals[next]);
        let mut size = 0u32;
        while next < arrivals.len() && arrivals[next] <= start && size < batch_cap {
            size += 1;
            next += 1;
        }
        debug_assert!(size >= 1, "the anchor sample has arrived by `start`");
        bound |= size == batch_cap && next < arrivals.len() && arrivals[next] <= start;
        let completion = start + service(size);
        for &arrival in &arrivals[next - size as usize..next] {
            response_sum += completion - arrival;
        }
        batches += 1;
        free_at = completion;
    }
    let stats = QueueStats {
        mean_response: Seconds::new(response_sum / arrivals.len() as f64),
        batches_served: batches,
        mean_batch_size: arrivals.len() as f64 / batches as f64,
    };
    (stats, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::InferenceSpace;
    use crate::scenario::{Scenario, ScenarioRetuner};
    use edgetune_serving::ServingConfig;
    use edgetune_util::units::Hertz;
    use rand::Rng;

    fn setup() -> (DeviceSpec, CpuAllocation, WorkProfile) {
        let device = DeviceSpec::raspberry_pi_3b();
        let alloc = CpuAllocation::full(&device);
        let profile = WorkProfile::new(0.56e9, 3.0e6, 44.8e6);
        (device, alloc, profile)
    }

    /// The `simulate_inference` latency of each batch size on `alloc`.
    fn latency<'a>(
        device: &'a DeviceSpec,
        alloc: &'a CpuAllocation,
        profile: &'a WorkProfile,
    ) -> impl FnMut(u32) -> f64 + 'a {
        |size| {
            simulate_inference(device, alloc, profile, size)
                .latency
                .value()
        }
    }

    /// The greedy queue's mean response time for one batch cap, as the
    /// program computes it.
    fn mean_response(
        scenario: &MultiStreamScenario,
        device: &DeviceSpec,
        alloc: &CpuAllocation,
        profile: &WorkProfile,
        batch_cap: u32,
        seed: SeedStream,
    ) -> Seconds {
        let service = &mut latency(device, alloc, profile);
        replay(&scenario.draw_arrivals(seed), batch_cap, service)
            .0
            .mean_response
    }

    /// The retuner of the one-point space on `setup`'s full allocation,
    /// sweeping only `batches`.
    fn full_allocation(
        device: &DeviceSpec,
        profile: &WorkProfile,
        batches: &[u32],
    ) -> ScenarioRetuner {
        let space = InferenceSpace {
            batches: batches.to_vec(),
            cores: vec![device.cores],
            freqs: vec![device.max_freq],
        };
        ScenarioRetuner::new(device.clone(), space, *profile)
    }

    /// A sweep's answer: batch, cores, frequency and the bits of the
    /// predicted mean response.
    type Point = (u32, u32, Hertz, u64);

    fn point(config: ServingConfig) -> Point {
        let response = config.predicted_mean_response.expect("a sweep predicts");
        (
            config.batch_cap,
            config.cores,
            config.freq,
            response.value().to_bits(),
        )
    }

    /// The greedy policy written on its own: whenever the server is free
    /// it takes every queued sample up to `batch_cap`, and every call
    /// draws its own arrivals and simulates every batch size afresh. The
    /// oracle [`replay`] and the sweeps are held to, bit for bit. Also
    /// returns whether more samples than the cap were ever waiting when
    /// a batch started.
    fn reference_simulate(
        scenario: &MultiStreamScenario,
        device: &DeviceSpec,
        alloc: &CpuAllocation,
        profile: &WorkProfile,
        batch_cap: u32,
        seed: SeedStream,
    ) -> (QueueStats, bool) {
        let mut rng = seed.rng("multi-stream-arrivals");
        let mut t = 0.0;
        let arrivals: Vec<f64> = (0..scenario.arrivals)
            .map(|_| {
                t += sample_exponential(&mut rng, scenario.rate);
                t
            })
            .collect();
        let mut response_sum = 0.0;
        let mut free_at = 0.0f64;
        let mut next = 0usize;
        let mut batches = 0u64;
        let mut overflowed = false;
        while next < arrivals.len() {
            let start = free_at.max(arrivals[next]);
            let waiting = arrivals[next..].iter().take_while(|&&a| a <= start).count();
            overflowed |= waiting > batch_cap as usize;
            let mut size = 0u32;
            while next < arrivals.len() && arrivals[next] <= start && size < batch_cap {
                size += 1;
                next += 1;
            }
            let completion = start
                + simulate_inference(device, alloc, profile, size)
                    .latency
                    .value();
            for &arrival in &arrivals[next - size as usize..next] {
                response_sum += completion - arrival;
            }
            batches += 1;
            free_at = completion;
        }
        let stats = QueueStats {
            mean_response: Seconds::new(response_sum / scenario.arrivals as f64),
            batches_served: batches,
            mean_batch_size: scenario.arrivals as f64 / batches as f64,
        };
        (stats, overflowed)
    }

    /// [`ScenarioRetuner::recommend`] as a loop over
    /// [`reference_simulate`].
    fn reference_tune(
        device: &DeviceSpec,
        space: &InferenceSpace,
        profile: &WorkProfile,
        scenario: &Scenario,
        seed: SeedStream,
    ) -> Option<Point> {
        let mut best: Option<(u32, u32, Hertz, Seconds)> = None;
        for &cores in &space.cores {
            for &freq in &space.freqs {
                let alloc = CpuAllocation::new(device, cores, freq).unwrap();
                for &batch in &space.batches {
                    let response = match scenario {
                        Scenario::Server(s) => s.response_time(device, &alloc, profile, batch),
                        Scenario::MultiStream(s) => Some(
                            reference_simulate(s, device, &alloc, profile, batch, seed)
                                .0
                                .mean_response,
                        ),
                    };
                    let Some(response) = response else { continue };
                    if best.is_none_or(|(.., b)| response < b) {
                        best = Some((batch, cores, freq, response));
                    }
                }
            }
        }
        best.map(|(batch, cores, freq, response)| (batch, cores, freq, response.value().to_bits()))
    }

    fn assert_same_replay(got: (QueueStats, bool), want: (QueueStats, bool), context: &str) {
        let ((got, got_bound), (want, want_bound)) = (got, want);
        assert_eq!(got_bound, want_bound, "{context}: cap bound");
        assert_eq!(
            got.mean_response.value().to_bits(),
            want.mean_response.value().to_bits(),
            "{context}"
        );
        assert_eq!(got.batches_served, want.batches_served, "{context}");
        assert_eq!(
            got.mean_batch_size.to_bits(),
            want.mean_batch_size.to_bits(),
            "{context}"
        );
    }

    #[test]
    fn shared_sweeps_match_the_per_candidate_reference() {
        let (device, alloc, profile) = setup();
        let full = InferenceSpace::for_device(&device);
        let spaces = [
            full.clone(),
            InferenceSpace {
                batches: vec![64, 1, 16, 4, 100, 2],
                ..full.clone()
            },
            InferenceSpace {
                batches: vec![8, 8, 1, 32, 1, 8],
                ..full.clone()
            },
            InferenceSpace {
                batches: vec![16],
                ..full.clone()
            },
        ];
        let retuners: Vec<_> = spaces
            .iter()
            .map(|space| ScenarioRetuner::new(device.clone(), space.clone(), profile))
            .collect();
        let mut rng = SeedStream::new(2024).rng("oracle-rates");
        for _ in 0..6 {
            // Log-uniform between 0.05 and 200 arrivals per second.
            let rate = 0.05 * (200.0f64 / 0.05).powf(rng.gen::<f64>());
            for arrivals in [1, 2, 37, 400] {
                let scenario = MultiStreamScenario::new(rate, arrivals);
                for seed in [3, 11].map(SeedStream::new) {
                    for (space, retuner) in spaces.iter().zip(&retuners) {
                        let context = format!("rate {rate}, {arrivals} arrivals, {space:?}");
                        let multi = Scenario::MultiStream(scenario);
                        let got = point(retuner.recommend(&multi, seed).unwrap());
                        let want = reference_tune(&device, space, &profile, &multi, seed);
                        assert_eq!(Some(got), want, "{context}");
                    }
                    for cap in [1, 7, 64] {
                        assert_same_replay(
                            replay(
                                &scenario.draw_arrivals(seed),
                                cap,
                                &mut latency(&device, &alloc, &profile),
                            ),
                            reference_simulate(&scenario, &device, &alloc, &profile, cap, seed),
                            &format!("rate {rate}, {arrivals} arrivals, cap {cap}"),
                        );
                    }
                }
            }
        }
        // The server path is held to the same loop.
        for period in [0.5, 30.0, 600.0] {
            let server = Scenario::Server(ServerScenario::new(64, Seconds::new(period)));
            let seed = SeedStream::new(1);
            assert_eq!(
                retuners[0].recommend(&server, seed).ok().map(point),
                reference_tune(&device, &full, &profile, &server, seed),
                "server period {period}"
            );
        }
    }

    /// The sweeps that read tabled latencies and skip the caps above one
    /// that never bound, held to the per-candidate reference bit for bit
    /// from light to heavy traffic, on the full space and on an unsorted
    /// batch list.
    #[test]
    fn table_backed_pruned_sweeps_match_the_per_candidate_reference() {
        let (device, _, profile) = setup();
        let full = InferenceSpace::for_device(&device);
        let unsorted = InferenceSpace {
            batches: vec![64, 1, 100, 8],
            ..full.clone()
        };
        for space in [full, unsorted] {
            let retuner = ScenarioRetuner::new(device.clone(), space.clone(), profile);
            // Log-spaced from 0.2 to 60 arrivals per second; a short run
            // leaves the big caps idle while the small ones bind.
            let rates = (0..8).map(|step| 0.2 * 300.0f64.powf(f64::from(step) / 7.0));
            for (rate, arrivals) in rates.flat_map(|rate| [(rate, 37), (rate, 400)]) {
                let scenario = Scenario::MultiStream(MultiStreamScenario::new(rate, arrivals));
                for seed in (0..8).map(SeedStream::new) {
                    let context = format!(
                        "rate {rate}, {arrivals} arrivals, {seed:?}, batches {:?}",
                        space.batches
                    );
                    let want = reference_tune(&device, &space, &profile, &scenario, seed);
                    let got = retuner.recommend(&scenario, seed).ok().map(point);
                    assert_eq!(got, want, "{context}");
                }
            }
        }
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
        let retuner = full_allocation(&device, &profile, &[1, 8, 16, 32, 64]);
        let server = Scenario::Server(scenario);
        assert!(retuner.recommend(&server, SeedStream::new(1)).is_err());
    }

    #[test]
    fn server_optimal_batch_is_argmin() {
        let (device, alloc, profile) = setup();
        let scenario = ServerScenario::new(32, Seconds::new(60.0));
        let candidates = [1, 2, 4, 8, 16, 32];
        let retuner = full_allocation(&device, &profile, &candidates);
        let server = Scenario::Server(scenario);
        let best = retuner
            .recommend(&server, SeedStream::new(1))
            .expect("stable at 60s period");
        let response = best.predicted_mean_response.unwrap();
        for &c in &candidates {
            if let Some(t) = scenario.response_time(&device, &alloc, &profile, c) {
                assert!(response <= t, "batch {} must be optimal", best.batch_cap);
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
        let single = mean_response(&scenario, &device, &alloc, &profile, 1, seed);
        let batched = mean_response(&scenario, &device, &alloc, &profile, 32, seed);
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
        let single = mean_response(&scenario, &device, &alloc, &profile, 1, seed);
        let capped = mean_response(&scenario, &device, &alloc, &profile, 16, seed);
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
        let a = mean_response(&scenario, &device, &alloc, &profile, 8, SeedStream::new(7));
        let b = mean_response(&scenario, &device, &alloc, &profile, 8, SeedStream::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn multi_stream_optimal_cap_is_argmin() {
        let (device, alloc, profile) = setup();
        let scenario = MultiStreamScenario::new(20.0, 300);
        let seed = SeedStream::new(8);
        let candidates = [1, 4, 16, 64];
        let retuner = full_allocation(&device, &profile, &candidates);
        let multi = Scenario::MultiStream(scenario);
        let best = retuner.recommend(&multi, seed).unwrap();
        assert!(candidates.contains(&best.batch_cap));
        let response = best.predicted_mean_response.unwrap();
        for &c in &candidates {
            let other = mean_response(&scenario, &device, &alloc, &profile, c, seed);
            assert!(response.value() <= other.value() + 1e-12);
        }
    }

    #[test]
    fn mean_response_time_matches_the_greedy_reference() {
        let (device, alloc, profile) = setup();
        for rate in [0.05, 1.0, 5.0, 10.0, 20.0, 50.0, 200.0] {
            for arrivals in [1, 2, 37, 300] {
                let scenario = MultiStreamScenario::new(rate, arrivals);
                for cap in [1, 2, 8, 16, 64] {
                    for seed in [2, 4, 9].map(SeedStream::new) {
                        let greedy =
                            reference_simulate(&scenario, &device, &alloc, &profile, cap, seed)
                                .0
                                .mean_response;
                        let got = mean_response(&scenario, &device, &alloc, &profile, cap, seed);
                        assert_eq!(
                            got.value().to_bits(),
                            greedy.value().to_bits(),
                            "rate {rate}, {arrivals} arrivals, cap {cap}: {greedy} vs {got}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_cap_bounds_every_batch() {
        let (device, alloc, profile) = setup();
        let scenario = MultiStreamScenario::new(50.0, 500);
        let (stats, _) = replay(
            &scenario.draw_arrivals(SeedStream::new(2)),
            8,
            &mut latency(&device, &alloc, &profile),
        );
        assert!(stats.mean_batch_size <= 8.0 + 1e-9);
        assert!(stats.batches_served >= (500 / 8) as u64);
    }

    #[test]
    #[should_panic(expected = "batch cap")]
    fn zero_cap_rejected() {
        let (device, alloc, profile) = setup();
        let scenario = MultiStreamScenario::new(1.0, 10);
        let _ = mean_response(&scenario, &device, &alloc, &profile, 0, SeedStream::new(1));
    }
}
