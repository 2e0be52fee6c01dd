//! Engine interface and retry/backoff policy.
//!
//! The serve crate owns transport, admission, and failure handling, but knows
//! nothing about simulations: the engine behind the server is abstracted as an
//! [`Executor`]. `mpwifi-repro` implements it on top of its registry and the
//! PR 5 supervision layer; tests implement it with scripted mocks.

use crate::proto::{RequestStatus, Response, RunRequest};
use mpwifi_simcore::DetRng;

/// One simulation engine attempt. Implementations run **one** attempt of the
/// request (retries are the pool's job), streaming incremental output through
/// `emit` (`progress` / `section` / `metrics` responses, already tagged with
/// the request id), and return the terminal status for the attempt.
///
/// Contract:
/// - Must not panic for any request the protocol can express; engine-side
///   panics/stalls are the executor's to contain (e.g. via
///   `repro::supervise`) and report as a failure [`RequestStatus`].
///   A panic that does escape is treated as a worker crash: the pool replaces
///   the worker and reports the request as `worker-lost`.
/// - `attempt` is 0-based; implementations should derive per-attempt seeds
///   from `(req.seed, attempt)` so retries are deterministic but decorrelated.
/// - Must be `Sync`: one instance is shared by the whole worker pool.
pub trait Executor: Sync {
    fn execute(
        &self,
        req: &RunRequest,
        attempt: u32,
        emit: &(dyn Fn(Response) + Sync),
    ) -> RequestStatus;

    /// Engine-side request validation, run by the server *before*
    /// admission. Protocol-level checks (JSON shape, known kinds) already
    /// happened; this is for what only the engine knows — e.g. whether an
    /// experiment id exists in the registry. A rejected request gets a
    /// typed `malformed` response and never occupies a queue slot.
    fn validate(&self, _req: &RunRequest) -> Result<(), String> {
        Ok(())
    }
}

/// Deterministic jittered exponential backoff, in milliseconds.
///
/// `attempt` is the 1-based retry number (first retry = 1). The base doubles
/// per retry (2, 4, 8, ... capped at [`BACKOFF_CAP_MS`]) and the jitter adds
/// up to 100% of the base, drawn from a [`DetRng`] keyed on the *request*
/// seed — so a given request produces the same backoff schedule on every run,
/// but different requests desynchronize instead of retrying in lockstep.
pub fn backoff_ms(seed: u64, attempt: u32) -> u64 {
    let base = BACKOFF_BASE_MS << (attempt.saturating_sub(1)).min(BACKOFF_DOUBLINGS);
    let base = base.min(BACKOFF_CAP_MS);
    let mut rng = DetRng::seed_from_u64(seed ^ 0x62_6163_6b6f_6666).derive(attempt as u64);
    base + rng.uniform_u64(0, base)
}

/// First-retry backoff base (kept small: requests are sim runs, not RPCs).
pub const BACKOFF_BASE_MS: u64 = 2;
/// Maximum number of base doublings before the cap flattens the curve.
pub const BACKOFF_DOUBLINGS: u32 = 5;
/// Upper bound on the backoff base; worst-case sleep is twice this.
pub const BACKOFF_CAP_MS: u64 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed_and_attempt() {
        for seed in [0u64, 42, u64::MAX] {
            for attempt in 1..=8 {
                assert_eq!(backoff_ms(seed, attempt), backoff_ms(seed, attempt));
            }
        }
    }

    #[test]
    fn backoff_grows_then_caps() {
        // base(attempt) = 2,4,8,16,32,64,64,64...; jitter in [0, base].
        for attempt in 1..=10u32 {
            let base =
                (BACKOFF_BASE_MS << (attempt - 1).min(BACKOFF_DOUBLINGS)).min(BACKOFF_CAP_MS);
            let got = backoff_ms(7, attempt);
            assert!(
                got >= base && got <= 2 * base,
                "attempt {attempt}: {got} outside [{base}, {}]",
                2 * base
            );
        }
        assert!(backoff_ms(7, 100) <= 2 * BACKOFF_CAP_MS);
    }

    #[test]
    fn different_seeds_desynchronize() {
        // Not a strict requirement per attempt, but across a pool of seeds the
        // jitter must actually vary — catch a constant-jitter regression.
        let distinct: std::collections::BTreeSet<u64> =
            (0..32u64).map(|seed| backoff_ms(seed, 3)).collect();
        assert!(distinct.len() > 1, "jitter is constant across seeds");
    }
}
