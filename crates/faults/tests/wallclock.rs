//! Wall-clock behaviour of [`RetryPolicy`].
//!
//! The unit tests in `retry.rs` pin the policy arithmetic on plain
//! `Seconds`; this test sleeps the *same* policy's delays on the host,
//! because that is how the process shard fabric retries its workers.
//! Durations are kept generous relative to scheduler jitter so the test
//! stays honest on loaded CI machines. (The fabric's heartbeat deadline
//! is a plain `Seconds` it hands to `recv_timeout`; its real-time
//! behaviour is covered by the fabric's own tests.)

use std::time::{Duration, Instant};

use edgetune_faults::RetryPolicy;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;

/// Host time since `start`, in the unit the policy takes.
fn elapsed(start: Instant) -> Seconds {
    Seconds::new(start.elapsed().as_secs_f64())
}

#[test]
fn supervised_retry_loop_recovers_in_real_time() {
    // Fail twice, succeed on the third attempt, sleeping the policy's
    // real jittered backoff between attempts — the exact loop shape the
    // process fabric runs per shard.
    let policy = RetryPolicy {
        max_attempts: 3,
        base_delay: Seconds::new(0.01),
        multiplier: 2.0,
        max_delay: Seconds::new(0.05),
        jitter: 0.5,
    };
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
            !policy.exhausted(attempt),
            "budget spent before the flake cleared"
        );
        let backoff = policy.delay(attempt, seed, u64::from(attempt));
        std::thread::sleep(Duration::from_secs_f64(backoff.value()));
        slept += backoff;
        attempt += 1;
    }

    assert_eq!(attempt, 3);
    assert!(
        policy.exhausted(attempt),
        "the budget ends at the third try"
    );
    // Real elapsed time covers at least the backoff actually slept
    // (jitter only ever shortens delays, never stretches them).
    assert!(elapsed(start) >= slept);
    assert!(slept.value() > 0.0, "backoff schedule never slept");
}
