//! Reordering / jitter stage.
//!
//! Mahimahi's shells never reorder, and neither do the paper's emulated
//! paths — but a networking library should let tests and ablations
//! inject reordering (it is the classic trigger for spurious fast
//! retransmits). [`ReorderStage`] holds each frame for an extra random
//! delay with some probability; held frames can leapfrog each other.

use crate::frame::Frame;
use crate::stage::Stage;
use mpwifi_simcore::{DetRng, Dur, Time};
use std::collections::BTreeMap;

/// Randomly delays a fraction of frames, re-ordering them relative to
/// their peers.
#[derive(Debug)]
pub struct ReorderStage {
    /// Probability that a frame is held back.
    prob: f64,
    /// Maximum extra delay for a held frame.
    max_extra: Dur,
    rng: DetRng,
    /// Exit-time ordered holding area; the `u64` disambiguates ties.
    held: BTreeMap<(Time, u64), Frame>,
    seq: u64,
}

impl ReorderStage {
    /// Create a stage that holds each frame with probability `prob` for
    /// a uniform extra delay in `(0, max_extra]`.
    pub fn new(prob: f64, max_extra: Dur, rng: DetRng) -> ReorderStage {
        assert!((0.0..=1.0).contains(&prob), "invalid probability");
        assert!(!max_extra.is_zero(), "max_extra must be positive");
        ReorderStage {
            prob,
            max_extra,
            rng,
            held: BTreeMap::new(),
            seq: 0,
        }
    }
}

impl Stage for ReorderStage {
    fn push(&mut self, now: Time, frame: Frame) {
        let extra = if self.rng.chance(self.prob) {
            // Inclusive upper bound: (0, max_extra].
            Dur::from_nanos(self.rng.uniform_u64(1, self.max_extra.as_nanos() + 1))
        } else {
            Dur::ZERO
        };
        self.seq += 1;
        self.held.insert((now + extra, self.seq), frame);
    }

    fn next_ready(&self) -> Option<Time> {
        self.held.keys().next().map(|&(t, _)| t)
    }

    fn pop_ready(&mut self, now: Time) -> Option<(Time, Frame)> {
        let (&(t, s), _) = self.held.iter().next()?;
        if t > now {
            return None;
        }
        let frame = self.held.remove(&(t, s)).unwrap();
        Some((t, frame))
    }

    fn drop_all(&mut self) -> u64 {
        let n = self.held.len() as u64;
        self.held.clear();
        n
    }

    fn backlog(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Addr;
    use bytes::Bytes;

    fn frame(id: u64) -> Frame {
        Frame::new(
            id,
            Addr(1),
            Addr(2),
            Bytes::from_static(&[0u8; 100]),
            Time::ZERO,
        )
    }

    fn drain(stage: &mut ReorderStage) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(t) = stage.next_ready() {
            let (_, f) = stage.pop_ready(t).unwrap();
            out.push(f.id);
        }
        out
    }

    #[test]
    fn zero_probability_preserves_order() {
        let mut s = ReorderStage::new(0.0, Dur::from_millis(10), DetRng::seed_from_u64(1));
        for i in 0..50 {
            s.push(Time::from_micros(i), frame(i));
        }
        assert_eq!(drain(&mut s), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn full_probability_actually_reorders() {
        let mut s = ReorderStage::new(1.0, Dur::from_millis(50), DetRng::seed_from_u64(2));
        for i in 0..100 {
            s.push(Time::from_micros(i), frame(i));
        }
        let order = drain(&mut s);
        assert_eq!(order.len(), 100, "nothing lost");
        assert_ne!(order, (0..100).collect::<Vec<_>>(), "order scrambled");
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>(), "same set");
    }

    #[test]
    fn frames_never_exit_before_arrival() {
        let mut s = ReorderStage::new(0.5, Dur::from_millis(20), DetRng::seed_from_u64(3));
        for i in 0..200u64 {
            let at = Time::from_millis(i);
            s.push(at, frame(i));
            // Nothing with a future exit may pop now.
            while let Some(t) = s.next_ready() {
                if t > at {
                    break;
                }
                let (exit, _) = s.pop_ready(at).unwrap();
                assert!(exit <= at);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = ReorderStage::new(0.7, Dur::from_millis(5), DetRng::seed_from_u64(9));
            for i in 0..40 {
                s.push(Time::from_micros(i * 10), frame(i));
            }
            drain(&mut s)
        };
        assert_eq!(run(), run());
    }
}
