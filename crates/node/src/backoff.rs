//! Seeded decorrelated-jitter backoff and a stop-aware sleep — the one
//! waiting policy behind client retries ([`crate::Retrier`]), supervised
//! restarts ([`crate::Supervised`]) and ingest feed retries
//! ([`crate::TipIngester`]).
//!
//! Each delay is `min(cap, uniform(base, prev * 3))` in microseconds:
//! it spreads synchronized waiters apart like full jitter but still
//! grows roughly exponentially, and it never leaves `[base, cap]`. The
//! jitter comes from a seeded RNG, so a schedule replays exactly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded decorrelated-jitter delay stream over `[base, cap]`.
#[derive(Debug)]
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: StdRng,
}

impl Backoff {
    /// A stream whose first delay is drawn from `[base, 3 * base]`. A
    /// `cap` below `base` is raised to `base`.
    pub(crate) fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap: cap.max(base),
            prev: base,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next delay: `min(cap, uniform(base, prev * 3))`.
    pub(crate) fn next(&mut self) -> Duration {
        let base = self.base.as_micros() as u64;
        let cap = self.cap.as_micros() as u64;
        let hi = (self.prev.as_micros() as u64).saturating_mul(3).max(base);
        let drawn = if hi > base {
            self.rng.gen_range(base..=hi)
        } else {
            base
        };
        let sleep = Duration::from_micros(drawn.min(cap));
        self.prev = sleep;
        sleep
    }

    /// Starts the growth over from `base` (after a success). The jitter
    /// stream carries on, so a reset schedule does not repeat itself.
    pub(crate) fn reset(&mut self) {
        self.prev = self.base;
    }
}

/// Sleeps `total`, waking early once `stop` is raised.
pub(crate) fn interruptible_sleep(total: Duration, stop: &AtomicBool) {
    let mut remaining = total;
    let chunk = Duration::from_millis(5);
    while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
        let step = remaining.min(chunk);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IngestConfig;

    fn schedule(base: Duration, cap: Duration, seed: u64, n: usize) -> Vec<Duration> {
        let mut backoff = Backoff::new(base, cap, seed);
        (0..n).map(|_| backoff.next()).collect()
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let (base, cap) = (Duration::from_millis(10), Duration::from_millis(200));
        let a = schedule(base, cap, 7, 10);
        assert_eq!(a, schedule(base, cap, 7, 10), "same seed, same delays");
        assert!(a.iter().all(|d| (base..=cap).contains(d)));
        // A different seed diverges somewhere in the first few picks.
        assert_ne!(
            schedule(base, cap, 1, 5),
            schedule(base, cap, 2, 5),
            "jitter ignored the seed"
        );
    }

    #[test]
    fn ingest_window_delays_stay_within_base_and_cap() {
        let config = IngestConfig::default();
        let (base, cap) = (config.backoff, config.max_backoff);
        for seed in 0..4 {
            let mut backoff = Backoff::new(base, cap, seed);
            for draw in 0..2_000 {
                if draw % 50 == 0 {
                    backoff.reset();
                }
                let delay = backoff.next();
                assert!(
                    (base..=cap).contains(&delay),
                    "seed {seed}, draw {draw}: {delay:?} outside [{base:?}, {cap:?}]"
                );
            }
        }
    }

    #[test]
    fn reset_restarts_growth_from_base() {
        let (base, cap) = (Duration::from_millis(1), Duration::from_secs(10));
        let mut backoff = Backoff::new(base, cap, 3);
        for _ in 0..20 {
            backoff.next();
        }
        backoff.reset();
        assert!(backoff.next() <= base * 3, "first delay after reset");
    }
}
