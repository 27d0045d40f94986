//! Retry policy: exponential backoff with decorrelated jitter.
//!
//! The serving stack sheds load with [`crate::Message::Busy`], drops
//! idle connections, and enforces deadlines; a well-behaved client
//! answers all of that with *patience*, not failure. [`RetryPolicy`]
//! describes how patient (attempt cap, backoff window, overall
//! deadline budget); [`Retrier`] executes an operation under a policy,
//! retrying exactly the errors [`NodeError::retryable`] classifies as
//! transient and giving up immediately on fatal ones — a verification
//! failure must never be papered over by asking the same peer again.
//!
//! Backoff uses the crate's decorrelated jitter (`sleep = min(cap,
//! uniform(base, prev * 3))`) from a seeded RNG, so a retry schedule —
//! like everything else in the chaos harness — is reproducible.

use std::time::{Duration, Instant};

use crate::backoff::Backoff;
use crate::message::NodeError;

/// How hard to try: attempt cap, backoff window, deadline budget.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use lvq_node::RetryPolicy;
///
/// // Five attempts, 10ms–2s decorrelated-jitter backoff, no deadline.
/// let default = RetryPolicy::default();
/// assert_eq!(default.max_attempts, 5);
///
/// // A CLI-style policy: 8 attempts, 50ms base, 2-second budget.
/// let patient = RetryPolicy::new(8)
///     .backoff(Duration::from_millis(50), Duration::from_secs(1))
///     .budget(Duration::from_secs(2));
/// assert_eq!(patient.max_attempts, 8);
///
/// // No retries at all: every error is final on the first attempt.
/// assert_eq!(RetryPolicy::none().max_attempts, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (must be at least 1).
    pub max_attempts: u32,
    /// Lower bound of every backoff sleep.
    pub base_backoff: Duration,
    /// Upper bound any backoff sleep is clamped to.
    pub max_backoff: Duration,
    /// Overall wall-clock budget for one operation, attempts and
    /// backoff included. `None` means attempts are the only cap.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(5)
    }
}

impl RetryPolicy {
    /// A policy of `max_attempts` tries with the default 10ms–2s
    /// backoff window and no deadline budget.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero — the first try is an attempt.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            deadline: None,
        }
    }

    /// A single attempt: transient errors are as final as fatal ones.
    pub fn none() -> Self {
        RetryPolicy::new(1)
    }

    /// Sets the backoff window (`base` = first sleep's lower bound,
    /// `cap` = clamp on every sleep).
    #[must_use]
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = cap.max(base);
        self
    }

    /// Sets the overall wall-clock budget for one operation.
    #[must_use]
    pub fn budget(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// What one best-effort tip re-check (the `sync_new` a retrying client
/// performs after a connection-shaped transient) actually found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResyncOutcome {
    /// The peer served this many new headers (always non-zero).
    Synced(u64),
    /// The peer reported nothing above our tip — at or behind us.
    PeerBehind,
    /// The peer's headers diverged from ours below our tip: the client
    /// rolled back to `fork_height` (within its reorg budget) and
    /// adopted the peer's replacement headers.
    Diverged {
        /// Height at which the two chains agree again.
        fork_height: u64,
    },
    /// The re-check itself failed; the query retry proceeds regardless.
    Failed,
}

impl ResyncOutcome {
    /// New headers this re-check gained — zero unless [`Synced`].
    /// A [`Diverged`] outcome replaces headers rather than gaining
    /// them, so it also reports zero here.
    ///
    /// [`Synced`]: ResyncOutcome::Synced
    /// [`Diverged`]: ResyncOutcome::Diverged
    pub fn new_headers(&self) -> u64 {
        match self {
            ResyncOutcome::Synced(headers) => *headers,
            _ => 0,
        }
    }
}

/// Counters of what a [`Retrier`] actually did, for reporting.
///
/// Everything here is deterministic under a fixed seed and policy
/// (backoff durations are drawn from the seeded RNG; only a deadline
/// budget consults the wall clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Operations driven to completion (success or final error).
    pub operations: u64,
    /// Individual attempts across all operations.
    pub attempts: u64,
    /// Attempts beyond the first, i.e. actual retries.
    pub retries: u64,
    /// Operations that exhausted the attempt cap or deadline budget on
    /// transient errors.
    pub exhausted: u64,
    /// Operations stopped by a fatal (non-retryable) error.
    pub fatal: u64,
    /// Total time slept in backoff.
    pub backoff_total: Duration,
    /// Tip re-checks performed after connection-shaped transients.
    pub resyncs: u64,
    /// New headers gained across all re-checks.
    pub resync_headers: u64,
    /// Re-checks that found the peer at or behind our tip.
    pub resyncs_peer_behind: u64,
    /// Re-checks that rolled the client back across a fork.
    pub resyncs_diverged: u64,
    /// Re-checks that themselves failed (never fatal on their own).
    pub resyncs_failed: u64,
    /// Outcome of the most recent re-check, `None` before the first.
    pub last_resync: Option<ResyncOutcome>,
}

impl RetryStats {
    /// Folds one tip re-check into the counters.
    pub fn record_resync(&mut self, outcome: ResyncOutcome) {
        self.resyncs += 1;
        match outcome {
            ResyncOutcome::Synced(headers) => self.resync_headers += headers,
            ResyncOutcome::PeerBehind => self.resyncs_peer_behind += 1,
            ResyncOutcome::Diverged { .. } => self.resyncs_diverged += 1,
            ResyncOutcome::Failed => self.resyncs_failed += 1,
        }
        self.last_resync = Some(outcome);
    }
}

/// Drives operations under a [`RetryPolicy`] with a seeded jitter
/// stream.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use lvq_node::{NodeError, Retrier, RetryPolicy};
///
/// let policy = RetryPolicy::new(4).backoff(Duration::from_millis(1), Duration::from_millis(5));
/// let mut retrier = Retrier::new(policy, 42);
/// let mut calls = 0;
/// let out: Result<&str, NodeError> = retrier.run(|_attempt| {
///     calls += 1;
///     if calls < 3 {
///         Err(NodeError::Busy) // transient: retried with backoff
///     } else {
///         Ok("served")
///     }
/// });
/// assert_eq!(out.unwrap(), "served");
/// assert_eq!(retrier.stats().attempts, 3);
/// assert_eq!(retrier.stats().retries, 2);
/// ```
#[derive(Debug)]
pub struct Retrier {
    policy: RetryPolicy,
    backoff: Backoff,
    stats: RetryStats,
}

impl Retrier {
    /// A retrier under `policy` whose jitter stream derives from
    /// `seed`.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Retrier {
            policy,
            backoff: Backoff::new(policy.base_backoff, policy.max_backoff, seed),
            stats: RetryStats::default(),
        }
    }

    /// The policy this retrier runs under.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Counters of what this retrier has done so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Runs `op` until it succeeds, fails fatally, or the policy is
    /// exhausted. `op` receives the 1-based attempt number.
    ///
    /// # Errors
    ///
    /// Returns the first non-retryable error immediately, or the last
    /// transient error once the attempt cap or deadline budget is
    /// spent.
    pub fn run<R, F>(&mut self, mut op: F) -> Result<R, NodeError>
    where
        F: FnMut(u32) -> Result<R, NodeError>,
    {
        self.run_ctx(|attempt, _| op(attempt))
    }

    /// Like [`Retrier::run`], but the operation also receives the live
    /// [`RetryStats`] so it can record side observations (e.g.
    /// [`RetryStats::record_resync`]) while the retrier itself is
    /// mutably borrowed by the loop.
    ///
    /// # Errors
    ///
    /// As [`Retrier::run`].
    pub fn run_ctx<R, F>(&mut self, mut op: F) -> Result<R, NodeError>
    where
        F: FnMut(u32, &mut RetryStats) -> Result<R, NodeError>,
    {
        let started = Instant::now();
        self.stats.operations += 1;
        self.backoff.reset();
        for attempt in 1..=self.policy.max_attempts {
            self.stats.attempts += 1;
            if attempt > 1 {
                self.stats.retries += 1;
            }
            let error = match op(attempt, &mut self.stats) {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            if !error.retryable() {
                self.stats.fatal += 1;
                return Err(error);
            }
            if attempt == self.policy.max_attempts {
                self.stats.exhausted += 1;
                return Err(error);
            }
            let sleep = self.backoff.next();
            if let Some(deadline) = self.policy.deadline {
                if started.elapsed() + sleep >= deadline {
                    self.stats.exhausted += 1;
                    return Err(error);
                }
            }
            self.stats.backoff_total += sleep;
            if !sleep.is_zero() {
                std::thread::sleep(sleep);
            }
        }
        unreachable!("the loop returns on the final attempt");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_core::QueryError;

    fn fast_policy(attempts: u32) -> RetryPolicy {
        RetryPolicy::new(attempts).backoff(Duration::from_micros(10), Duration::from_micros(50))
    }

    #[test]
    fn fatal_errors_are_never_retried() {
        let mut retrier = Retrier::new(fast_policy(5), 1);
        let mut calls = 0u32;
        let out: Result<(), NodeError> = retrier.run(|_| {
            calls += 1;
            Err(NodeError::Verify(QueryError::WrongResponseKind))
        });
        assert!(matches!(out.unwrap_err(), NodeError::Verify(_)));
        assert_eq!(calls, 1, "a verification failure must not be replayed");
        assert_eq!(retrier.stats().fatal, 1);
        assert_eq!(retrier.stats().retries, 0);
    }

    #[test]
    fn transient_errors_retry_up_to_the_cap() {
        let mut retrier = Retrier::new(fast_policy(4), 2);
        let mut calls = 0u32;
        let out: Result<(), NodeError> = retrier.run(|attempt| {
            calls += 1;
            assert_eq!(attempt, calls);
            Err(NodeError::Busy)
        });
        assert_eq!(out.unwrap_err(), NodeError::Busy);
        assert_eq!(calls, 4);
        let stats = retrier.stats();
        assert_eq!(stats.attempts, 4);
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.exhausted, 1);
        assert!(stats.backoff_total > Duration::ZERO);
    }

    #[test]
    fn success_after_transient_failures() {
        let mut retrier = Retrier::new(fast_policy(5), 3);
        let mut calls = 0u32;
        let out = retrier.run(|_| {
            calls += 1;
            if calls < 3 {
                Err(NodeError::Disconnected { context: "test" })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3);
        assert_eq!(retrier.stats().exhausted, 0);
        assert_eq!(retrier.stats().fatal, 0);
    }

    #[test]
    fn backoff_schedule_is_reproducible_and_bounded() {
        let schedule = |seed: u64| {
            let mut retrier = Retrier::new(fast_policy(6), seed);
            let _: Result<(), NodeError> = retrier.run(|_| Err(NodeError::Busy));
            retrier.stats().backoff_total
        };
        assert_eq!(schedule(7), schedule(7), "same seed, same sleeps");
        // Five sleeps, each clamped to the 50µs cap.
        assert!(schedule(7) <= Duration::from_micros(5 * 50));
    }

    #[test]
    fn deadline_budget_stops_retrying() {
        // A zero budget: the first backoff would already exceed it.
        let policy = fast_policy(10).budget(Duration::ZERO);
        let mut retrier = Retrier::new(policy, 4);
        let mut calls = 0u32;
        let out: Result<(), NodeError> = retrier.run(|_| {
            calls += 1;
            Err(NodeError::Busy)
        });
        assert_eq!(out.unwrap_err(), NodeError::Busy);
        assert_eq!(calls, 1, "no budget, no retries");
        assert_eq!(retrier.stats().exhausted, 1);
    }

    #[test]
    fn single_attempt_policy_makes_transients_final() {
        let mut retrier = Retrier::new(RetryPolicy::none(), 0);
        let mut calls = 0u32;
        let out: Result<(), NodeError> = retrier.run(|_| {
            calls += 1;
            Err(NodeError::Busy)
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }
}
