//! Both queue models held to queueing theory instead of their own
//! output. With batch cap 1, one server and Poisson arrivals, the §3.4
//! multi-stream simulator and the serving runtime are each an M/D/1
//! queue: the service time is the device model's batch-1 latency, a
//! constant. Pollaczek–Khinchine gives its mean response in closed form,
//! W = s + ρs / (2(1 − ρ)).
//!
//! Each load is run under several seeds. The bound is a number of
//! standard errors of the mean over those runs, so it tightens where the
//! queue is calm and widens only as far as its own variance does.
//!
//! Beyond cap 1 and one server there is no closed form, so the runtime
//! is also held to a reference discrete-event simulation written straight
//! from its batching and dispatch rules, to 1e-9 relative, and its trace
//! to two identities no rule can bend: work conservation and Little's
//! law.

use edgetune::batching::MultiStreamScenario;
use edgetune::inference::InferenceSpace;
use edgetune::scenario::{Scenario, ScenarioRetuner};
use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::{RuntimeOptions, ServingConfig, ServingRuntime, SloPolicy, TrafficProfile};
use edgetune_trace::{EventKind, Tracer};
use edgetune_util::rng::SeedStream;
use edgetune_util::stats::quantiles;
use edgetune_util::units::Seconds;

/// Utilisations ρ = λs the oracle is checked at.
const LOADS: [f64; 3] = [0.3, 0.6, 0.9];
/// Independent runs per load.
const SEEDS: u64 = 20;
/// Arrivals per run.
const ARRIVALS: usize = 20_000;
/// Allowed distance from the closed form, in standard errors.
const STANDARD_ERRORS: f64 = 4.0;

/// A ResNet-18 on a Raspberry Pi at every core and top frequency, and
/// its batch-1 service time in seconds.
fn setup() -> (DeviceSpec, WorkProfile, f64) {
    let device = DeviceSpec::raspberry_pi_3b();
    let profile = WorkProfile::new(0.56e9, 3.0e6, 44.8e6);
    let alloc = CpuAllocation::full(&device);
    let service = simulate_inference(&device, &alloc, &profile, 1)
        .latency
        .value();
    (device, profile, service)
}

/// Asserts the mean of `runs` (one mean response per seed) lies within
/// [`STANDARD_ERRORS`] standard errors of the M/D/1 mean response.
fn assert_pollaczek_khinchine(path: &str, service: f64, rho: f64, runs: &[f64]) {
    let want = service + rho * service / (2.0 * (1.0 - rho));
    let n = runs.len() as f64;
    let got = runs.iter().sum::<f64>() / n;
    // The sample variance (n − 1) over n gives the standard error.
    let variance = runs.iter().map(|x| (x - got).powi(2)).sum::<f64>() / (n - 1.0);
    let standard_error = (variance / n).sqrt();
    assert!(
        (got - want).abs() <= STANDARD_ERRORS * standard_error,
        "{path} at rho {rho}: mean response {got} s, Pollaczek-Khinchine {want} s, \
         standard error {standard_error} s"
    );
}

#[test]
fn multi_stream_scenario_is_an_md1_queue() {
    let (device, profile, service) = setup();
    // Cap 1 on the full allocation: the one point `setup` timed.
    let space = InferenceSpace {
        batches: vec![1],
        cores: vec![device.cores],
        freqs: vec![device.max_freq],
    };
    let retuner = ScenarioRetuner::new(device, space, profile);
    for rho in LOADS {
        let scenario = Scenario::MultiStream(MultiStreamScenario::new(rho / service, ARRIVALS));
        let runs: Vec<f64> = (0..SEEDS)
            .map(|seed| {
                retuner
                    .recommend(&scenario, SeedStream::new(seed))
                    .unwrap()
                    .predicted_mean_response
                    .unwrap()
                    .value()
            })
            .collect();
        assert_pollaczek_khinchine("MultiStreamScenario", service, rho, &runs);
    }
}

#[test]
fn serving_runtime_is_an_md1_queue() {
    let (device, profile, service) = setup();
    let config = ServingConfig::new(1, device.cores, device.max_freq);
    // Pinned cap, no drift re-tunes, no shedding, one worker: nothing
    // but the queue.
    let options = RuntimeOptions::new(SloPolicy::new(Seconds::new(60.0)).without_shedding())
        .static_serving()
        .with_workers(1);
    let runtime = ServingRuntime::new(device, profile, config, options).unwrap();
    for rho in LOADS {
        let rate = rho / service;
        let horizon = Seconds::new(ARRIVALS as f64 / rate);
        let runs: Vec<f64> = (0..SEEDS)
            .map(|seed| {
                let report = runtime
                    .serve(
                        &TrafficProfile::Poisson { rate },
                        horizon,
                        None,
                        SeedStream::new(seed),
                    )
                    .unwrap();
                assert_eq!(report.served, report.requests, "nothing is shed");
                report.mean_response.value()
            })
            .collect();
        assert_pollaczek_khinchine("ServingRuntime", service, rho, &runs);
    }
}

/// The serving runtime's event loop re-derived from its rules, for caps
/// above 1 and several workers, where no closed form exists. Returns
/// (served, batches, makespan, mean, p99, energy, mean queue depth, max
/// queue depth).
fn reference_des(
    (device, profile): (&DeviceSpec, &WorkProfile),
    arrivals: &[f64],
    (workers, cap): (usize, usize),
) -> (u64, u64, f64, f64, f64, f64, f64, u64) {
    let alloc = CpuAllocation::full(device);
    let (mut free, mut responses) = (vec![0.0f64; workers], Vec::new());
    let (mut next, mut batches, mut makespan, mut energy) = (0, 0u64, 0.0f64, 0.0f64);
    let (mut depth_sum, mut depth_max) = (0.0f64, 0u64);
    while next < arrivals.len() {
        // The earliest-free worker (lowest index on a tie) takes the
        // oldest waiting request and every other one that has arrived by
        // then, up to the cap.
        let w = (0..workers).fold(0, |best, i| if free[i] < free[best] { i } else { best });
        let start = arrivals[next].max(free[w]);
        let first = next;
        while next < arrivals.len() && arrivals[next] <= start && next - first < cap {
            next += 1;
        }
        let run = simulate_inference(device, &alloc, profile, (next - first) as u32);
        let done = start + run.latency.value();
        responses.extend(arrivals[first..next].iter().map(|a| done - a));
        (free[w], makespan, batches) = (done, makespan.max(done), batches + 1);
        energy += run.energy.value();
        // The backlog at completion: every request not yet taken that
        // has arrived by then, counted one by one.
        let backlog = arrivals[next..].iter().take_while(|&&a| a <= done).count() as u64;
        (depth_sum, depth_max) = (depth_sum + backlog as f64, depth_max.max(backlog));
    }
    let mean_response = responses.iter().sum::<f64>() / responses.len() as f64;
    let [p99] = quantiles(&mut responses, [0.99]).unwrap();
    let mean_depth = depth_sum / batches as f64;
    let served = next as u64;
    (
        served,
        batches,
        makespan,
        mean_response,
        p99,
        energy,
        mean_depth,
        depth_max,
    )
}

/// Relative agreement the exact oracles below are held to.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// The oracles' cells: workers {1, 2} × cap {1, 4}, each a static,
/// no-shed runtime at 80 % load, with the Poisson arrivals of three
/// seeds.
fn cells(
    (device, profile, service): &(DeviceSpec, WorkProfile, f64),
) -> impl Iterator<Item = ((u32, u32), ServingRuntime, SeedStream, Vec<f64>)> + '_ {
    let slo = SloPolicy::new(Seconds::new(60.0)).without_shedding();
    [1u32, 2]
        .into_iter()
        .flat_map(|w| [1u32, 4].map(|c| (w, c)))
        .flat_map(move |(workers, cap)| {
            let config = ServingConfig::new(cap, device.cores, device.max_freq);
            let options = RuntimeOptions::new(slo)
                .static_serving()
                .with_workers(workers);
            let runtime = ServingRuntime::new(device.clone(), *profile, config, options).unwrap();
            let rate = 0.8 * f64::from(workers) / service;
            (0..3).map(SeedStream::new).map(move |seed| {
                let arrivals =
                    TrafficProfile::Poisson { rate }.generate(Seconds::new(3_000.0 / rate), seed);
                ((workers, cap), runtime.clone(), seed, arrivals)
            })
        })
}

#[test]
fn serving_runtime_matches_a_reference_des() {
    let setup = setup();
    let (device, profile, _) = &setup;
    for ((workers, cap), runtime, seed, arrivals) in cells(&setup) {
        let got = runtime
            .serve_trace(&arrivals, "poisson", None, seed)
            .unwrap();
        let shape = (workers as usize, cap as usize);
        let want = reference_des((device, profile), &arrivals, shape);
        let cell = format!("workers {workers}, cap {cap}");
        assert_eq!((got.served, got.batches), (want.0, want.1), "{cell}");
        assert_eq!(
            (got.mean_queue_depth.to_bits(), got.max_queue_depth),
            (want.6.to_bits(), want.7),
            "{cell}: queue depth"
        );
        for (what, got, want) in [
            ("makespan", got.makespan.value(), want.2),
            ("mean_response", got.mean_response.value(), want.3),
            ("p99_response", got.p99_response.value(), want.4),
            ("energy", got.energy.value(), want.5),
        ] {
            assert!(close(got, want), "{cell}: {what} {got} vs {want}");
        }
    }
}

/// Two identities any run must satisfy, read off its trace: the workers
/// were busy for exactly the device model's service time of the batches
/// they ran (work conservation), and the time-averaged number of
/// requests in the system equals arrival rate × mean response (Little's
/// law).
#[test]
fn serving_runtime_conserves_work_and_obeys_littles_law() {
    let setup = setup();
    let (device, profile, _) = &setup;
    let alloc = CpuAllocation::full(device);
    for ((workers, cap), runtime, seed, arrivals) in cells(&setup) {
        let tracer = Tracer::new();
        let report = runtime
            .serve_trace_traced(&arrivals, "poisson", None, seed, Some(&tracer))
            .unwrap();
        let cell = format!("workers {workers}, cap {cap}");
        // Each batch span: (start, end, size).
        let batches: Vec<(f64, f64, u32)> = tracer
            .with(|_, events| events.to_vec())
            .into_iter()
            .filter_map(|event| match event.kind {
                EventKind::Span { end } => {
                    let size = event.args.iter().find(|(key, _)| key == "size")?;
                    Some((event.ts.value(), end.value(), size.1.parse().ok()?))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            batches.len() as u64,
            report.batches,
            "{cell}: one span per batch"
        );

        let sizes: u64 = batches.iter().map(|&(_, _, size)| u64::from(size)).sum();
        assert_eq!(sizes, report.served, "{cell}: batch sizes sum to served");
        assert!(
            batches
                .iter()
                .all(|&(_, _, size)| (1..=cap).contains(&size)),
            "{cell}"
        );
        let busy: f64 = batches.iter().map(|&(start, end, _)| end - start).sum();
        let work: f64 = batches
            .iter()
            .map(|&(_, _, size)| {
                simulate_inference(device, &alloc, profile, size)
                    .latency
                    .value()
            })
            .sum();
        assert!(close(busy, work), "{cell}: busy {busy} s, service {work} s");

        // Over [0, T], T the last departure, every request arrives and
        // departs: ∫ N(t) dt sums each arrival's and departure's
        // remaining time, with opposite signs.
        let horizon = report.makespan.value();
        let in_system: f64 = arrivals.iter().map(|a| horizon - a).sum::<f64>()
            - batches
                .iter()
                .map(|&(_, end, size)| f64::from(size) * (horizon - end))
                .sum::<f64>();
        let mean_in_system = in_system / horizon;
        let rate = arrivals.len() as f64 / horizon;
        let little = rate * report.mean_response.value();
        assert!(
            close(mean_in_system, little),
            "{cell}: L = {mean_in_system}, lambda W = {little}"
        );
    }
}
