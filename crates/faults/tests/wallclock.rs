//! Wall-clock behaviour of [`Supervisor`] and [`Deadline`].
//!
//! The unit tests in `retry.rs` pin the policy arithmetic on plain
//! `Seconds`; these tests hand the *same* policy objects host time
//! measured from outside with `Instant` — short real sleeps, a real hung
//! thread — because that is how the process shard fabric supervises its
//! workers. Durations are kept generous relative to scheduler jitter so
//! the tests stay honest on loaded CI machines.

use std::time::{Duration, Instant};

use edgetune_faults::{Deadline, RetryPolicy, Supervisor};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;

/// Host time since `start`, in the unit the policies take.
fn elapsed(start: Instant) -> Seconds {
    Seconds::new(start.elapsed().as_secs_f64())
}

#[test]
fn deadline_fires_under_real_time() {
    let deadline = Deadline::new(Seconds::new(0.02));
    let start = Instant::now();
    assert!(
        !deadline.exceeded(elapsed(start)),
        "a 20 ms deadline cannot already be spent"
    );
    std::thread::sleep(Duration::from_millis(60));
    assert!(deadline.exceeded(elapsed(start)));

    // A generous limit is untouched by the same wait.
    assert!(!Deadline::new(Seconds::new(60.0)).exceeded(elapsed(start)));
}

#[test]
fn supervised_retry_loop_recovers_in_real_time() {
    // Fail twice, succeed on the third attempt, sleeping the policy's
    // real jittered backoff between attempts — the exact loop shape the
    // process fabric runs per shard.
    let supervisor = Supervisor::new(RetryPolicy {
        max_attempts: 3,
        base_delay: Seconds::new(0.01),
        multiplier: 2.0,
        max_delay: Seconds::new(0.05),
        jitter: 0.5,
    });
    let seed = SeedStream::new(3);
    let start = Instant::now();

    let mut attempt = 1u32;
    let mut slept = Seconds::ZERO;
    loop {
        let failed = attempt < 3;
        if !failed {
            break;
        }
        assert!(
            !supervisor.give_up(attempt),
            "budget spent before the flake cleared"
        );
        let backoff = supervisor.backoff(attempt, seed, u64::from(attempt));
        std::thread::sleep(Duration::from_secs_f64(backoff.value()));
        slept += backoff;
        attempt += 1;
    }

    assert_eq!(attempt, 3);
    // Real elapsed time covers at least the backoff actually slept
    // (jitter only ever shortens delays, never stretches them).
    assert!(elapsed(start) >= slept);
    assert!(slept.value() > 0.0, "backoff schedule never slept");
}

#[test]
fn hung_work_is_detected_while_it_is_still_hung() {
    // A worker that stops responding for 500 ms, watched by a 40 ms
    // heartbeat deadline polled on host time: detection must come
    // long before the hang resolves.
    let hung = std::thread::spawn(|| std::thread::sleep(Duration::from_millis(500)));
    let supervisor =
        Supervisor::new(RetryPolicy::no_retries()).with_deadline(Deadline::new(Seconds::new(0.04)));
    let start = Instant::now();
    while !supervisor.deadline_exceeded(elapsed(start)) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let detected_after = elapsed(start);
    assert!(
        detected_after.value() < 0.5,
        "deadline ({detected_after:?}) fired only after the hang resolved"
    );
    assert!(
        !hung.is_finished(),
        "the hung worker returned before the deadline tripped"
    );
    hung.join().unwrap();
}
