//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seed-free *timeline* of impairment events for
//! one interface: link blackouts (silent cable-pull vs. notified
//! `multipath off`), burst-loss episodes driven by a Gilbert–Elliott
//! two-state process, delay spikes, rate crushes, and segment
//! corruption. The plan itself is plain data; the simulation driver
//! compiles it — blackouts/spikes/crushes become scripted link events,
//! each loss or corruption episode becomes one of the filters defined
//! here, appended to the affected pipelines' tails with an RNG stream
//! derived from the run seed. Everything a plan does is therefore a
//! pure function of `(scenario, seed)`, like the rest of the emulator.
//!
//! The filters are *episode-gated*: outside their `[start, end)` episode
//! they pass frames untouched and draw no randomness, so a fault that
//! never fires cannot perturb a run.

use crate::frame::{Frame, Payload};
use crate::stage::Filter;
use mpwifi_simcore::{DetRng, Dur, Time};
use std::ops::Range;

/// Parameters of a Gilbert–Elliott two-state loss process: the channel
/// alternates between a mostly-lossless Good state and a bursty Bad
/// state, with per-frame transition probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(Good → Bad) evaluated per frame.
    pub p_good_to_bad: f64,
    /// P(Bad → Good) evaluated per frame.
    pub p_bad_to_good: f64,
    /// Loss probability while Good (usually ~0).
    pub loss_good: f64,
    /// Loss probability while Bad (high: this is the burst).
    pub loss_bad: f64,
}

impl Default for GilbertElliott {
    fn default() -> GilbertElliott {
        GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.25,
            loss_good: 0.0,
            loss_bad: 0.8,
        }
    }
}

impl GilbertElliott {
    fn validate(&self) {
        for p in [
            self.p_good_to_bad,
            self.p_bad_to_good,
            self.loss_good,
            self.loss_bad,
        ] {
            assert!((0.0..=1.0).contains(&p), "invalid probability {p}");
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Onset time.
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

/// The fault taxonomy. Every variant has a bounded window except a
/// permanent blackout (`duration: None`), which models walking away
/// from an AP for good.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Link goes fully down; restored after `duration` (`None` =
    /// never). `notify: false` is a silent cable-pull/USB-unplug (the
    /// endpoints learn nothing); `notify: true` additionally delivers
    /// local interface-down/-up notifications to the client, like
    /// `multipath off` / airplane-mode toggles.
    Blackout {
        /// How long the link stays down; `None` means forever.
        duration: Option<Dur>,
        /// Whether the client gets a local notification at cut and
        /// restore time.
        notify: bool,
    },
    /// A Gilbert–Elliott burst-loss episode on both directions.
    BurstLoss {
        /// Episode length.
        duration: Dur,
        /// Burst process parameters.
        ge: GilbertElliott,
    },
    /// One-way propagation delay raised by `extra` for the window.
    DelaySpike {
        /// Spike length.
        duration: Dur,
        /// Added one-way delay.
        extra: Dur,
    },
    /// Link rate multiplied by `factor` (< 1) for the window.
    RateCrush {
        /// Crush length.
        duration: Dur,
        /// Rate multiplier in (0, 1].
        factor: f64,
    },
    /// Frames corrupted in place with probability `prob` during the
    /// window: a byte of the wire image is flipped, so the receiver's
    /// checksum rejects the segment (a counted drop, never a panic).
    Corruption {
        /// Episode length.
        duration: Dur,
        /// Per-frame corruption probability.
        prob: f64,
    },
}

/// A deterministic, per-interface fault timeline. Build one with the
/// chainable scheduling methods, then attach it to a scenario
/// (`SimBuilder::with_faults` in the sim crate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, in insertion order (the compiler sorts).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(mut self, at: Time, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Silent blackout (cable-pull): link down at `at`, back after
    /// `duration`, no notifications.
    pub fn blackout(self, at: Time, duration: Dur) -> FaultPlan {
        self.push(
            at,
            FaultKind::Blackout {
                duration: Some(duration),
                notify: false,
            },
        )
    }

    /// Silent blackout that never ends (AP walk-away).
    pub fn blackout_forever(self, at: Time) -> FaultPlan {
        self.push(
            at,
            FaultKind::Blackout {
                duration: None,
                notify: false,
            },
        )
    }

    /// Notified blackout (airplane mode / `multipath off`): like
    /// [`Self::blackout`] but the client receives interface-down and
    /// interface-up notifications at the window edges.
    pub fn notified_blackout(self, at: Time, duration: Dur) -> FaultPlan {
        self.push(
            at,
            FaultKind::Blackout {
                duration: Some(duration),
                notify: true,
            },
        )
    }

    /// Notified blackout that never ends.
    pub fn notified_blackout_forever(self, at: Time) -> FaultPlan {
        self.push(
            at,
            FaultKind::Blackout {
                duration: None,
                notify: true,
            },
        )
    }

    /// Gilbert–Elliott burst-loss episode.
    pub fn burst_loss(self, at: Time, duration: Dur, ge: GilbertElliott) -> FaultPlan {
        ge.validate();
        self.push(at, FaultKind::BurstLoss { duration, ge })
    }

    /// Delay spike: one-way delay raised by `extra` for `duration`.
    pub fn delay_spike(self, at: Time, duration: Dur, extra: Dur) -> FaultPlan {
        self.push(at, FaultKind::DelaySpike { duration, extra })
    }

    /// Rate crush: link rate multiplied by `factor` for `duration`.
    pub fn rate_crush(self, at: Time, duration: Dur, factor: f64) -> FaultPlan {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "crush factor must be in (0, 1]"
        );
        self.push(at, FaultKind::RateCrush { duration, factor })
    }

    /// Segment-corruption episode with per-frame probability `prob`.
    pub fn corruption(self, at: Time, duration: Dur, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "invalid probability {prob}");
        self.push(at, FaultKind::Corruption { duration, prob })
    }
}

/// Gilbert–Elliott burst loss, active only inside its `[start, end)`
/// episode. The episode begins in the Bad state (the episode *is* the
/// burst); outside it frames pass untouched with no RNG draws.
#[derive(Debug)]
pub struct GilbertElliottFilter {
    episode: Range<Time>,
    ge: GilbertElliott,
    rng: DetRng,
    bad: bool,
    dropped: u64,
}

impl GilbertElliottFilter {
    /// Create the filter for the episode `start..end`.
    pub fn new(episode: Range<Time>, ge: GilbertElliott, rng: DetRng) -> Self {
        ge.validate();
        GilbertElliottFilter {
            episode,
            ge,
            rng,
            bad: true,
            dropped: 0,
        }
    }
}

impl Filter for GilbertElliottFilter {
    fn admit(&mut self, at: Time, _frame: &mut Frame) -> bool {
        if !self.episode.contains(&at) {
            return true;
        }
        let (loss, flip) = if self.bad {
            (self.ge.loss_bad, self.ge.p_bad_to_good)
        } else {
            (self.ge.loss_good, self.ge.p_good_to_bad)
        };
        let drop = self.rng.chance(loss);
        if self.rng.chance(flip) {
            self.bad = !self.bad;
        }
        self.dropped += u64::from(drop);
        !drop
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Segment corruption, active only inside its `[start, end)` episode. A
/// corrupted frame is *not* dropped here — its wire image is made (the
/// one place a typed segment becomes bytes; shared buffers are never
/// scribbled), one byte of it is XOR-flipped, and it travels on as
/// [`crate::Payload::Wire`], to be rejected by the receiver's strict
/// decode. Outside the episode frames pass untouched with no RNG draws.
#[derive(Debug)]
pub struct CorruptFilter {
    episode: Range<Time>,
    prob: f64,
    rng: DetRng,
    corrupted: u64,
}

impl CorruptFilter {
    /// Create the filter for the episode `start..end`.
    pub fn new(episode: Range<Time>, prob: f64, rng: DetRng) -> Self {
        assert!((0.0..=1.0).contains(&prob), "invalid probability {prob}");
        CorruptFilter {
            episode,
            prob,
            rng,
            corrupted: 0,
        }
    }

    /// Frames whose wire image was flipped so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }
}

impl Filter for CorruptFilter {
    fn admit(&mut self, at: Time, frame: &mut Frame) -> bool {
        if self.episode.contains(&at) && self.rng.chance(self.prob) && frame.wire_len() != 0 {
            let mut raw = frame.payload.to_vec();
            let off = self.rng.uniform_u64(0, raw.len() as u64) as usize;
            raw[off] ^= 0x55;
            frame.payload = Payload::Wire(bytes::Bytes::from(raw));
            self.corrupted += 1;
        }
        true
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
            Bytes::from(vec![0xAAu8; 100]),
            Time::ZERO,
        )
    }

    /// Offer `frame` to `filter` at `at`; `Some` is the frame that
    /// travels on.
    fn pass(filter: &mut dyn Filter, at: Time, mut frame: Frame) -> Option<Frame> {
        filter.admit(at, &mut frame).then_some(frame)
    }

    #[test]
    fn plan_builder_orders_and_records_everything() {
        let plan = FaultPlan::new()
            .blackout(Time::from_millis(300), Dur::from_secs(2))
            .burst_loss(
                Time::from_secs(5),
                Dur::from_secs(1),
                GilbertElliott::default(),
            )
            .delay_spike(
                Time::from_secs(7),
                Dur::from_millis(500),
                Dur::from_millis(200),
            )
            .rate_crush(Time::from_secs(9), Dur::from_secs(1), 0.1)
            .corruption(Time::from_secs(11), Dur::from_secs(1), 0.2);
        assert_eq!(plan.events.len(), 5);
        assert!(matches!(
            plan.events[0].kind,
            FaultKind::Blackout {
                duration: Some(_),
                notify: false
            }
        ));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn ge_filter_outside_episode_is_transparent_and_draws_no_rng() {
        let mut s = GilbertElliottFilter::new(
            Time::from_secs(10)..Time::from_secs(11),
            GilbertElliott {
                loss_bad: 1.0,
                loss_good: 1.0,
                ..GilbertElliott::default()
            },
            DetRng::seed_from_u64(1),
        );
        let passed = (0..200)
            .filter(|&i| pass(&mut s, Time::from_millis(i), frame(i)).is_some())
            .count();
        assert_eq!(passed, 200, "nothing lost outside the episode");
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn ge_filter_drops_in_bursts_inside_episode() {
        let ge = GilbertElliott {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut s = GilbertElliottFilter::new(
            Time::from_secs(1)..Time::from_secs(2),
            ge,
            DetRng::seed_from_u64(7),
        );
        // 1000 frames inside the episode, 0.9 ms apart -> heavy loss, in
        // runs (the episode starts Bad).
        let mut lost_first = false;
        for i in 0..1000u64 {
            let at = Time::from_secs(1) + Dur::from_micros(i * 900);
            let lost = pass(&mut s, at, frame(i)).is_none();
            if i == 0 {
                lost_first = lost;
            }
        }
        assert!(lost_first, "episodes begin in the Bad state");
        let frac = s.dropped() as f64 / 1000.0;
        // Stationary loss for these params is p_gb/(p_gb+p_bg) = 1/3.
        assert!((0.15..0.55).contains(&frac), "burst loss fraction {frac}");
        // And frames after the episode pass untouched.
        let base = s.dropped();
        for i in 0..50 {
            assert!(pass(&mut s, Time::from_secs(3) + Dur::from_millis(i), frame(i)).is_some());
        }
        assert_eq!(s.dropped(), base);
    }

    #[test]
    fn ge_filter_deterministic_given_seed() {
        let run = || {
            let mut s = GilbertElliottFilter::new(
                Time::ZERO..Time::from_secs(1),
                GilbertElliott::default(),
                DetRng::seed_from_u64(9),
            );
            let passed: u64 = (0..500u64)
                .filter_map(|i| pass(&mut s, Time::from_micros(i * 1500), frame(i)))
                .map(|f| f.id)
                .sum();
            (s.dropped(), passed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corrupt_filter_flips_bytes_only_inside_episode() {
        let mut s = CorruptFilter::new(
            Time::from_secs(1)..Time::from_secs(2),
            1.0,
            DetRng::seed_from_u64(3),
        );
        let out: Vec<Frame> = [
            (Time::ZERO, 1),
            (Time::from_millis(1500), 2),
            (Time::from_secs(3), 3),
        ]
        .into_iter()
        .filter_map(|(at, id)| pass(&mut s, at, frame(id)))
        .collect();
        assert_eq!(out.len(), 3, "corruption never drops frames here");
        assert_eq!(s.corrupted(), 1);
        let clean = vec![0xAAu8; 100];
        assert_eq!(out[0].payload.to_vec(), clean);
        assert_ne!(out[1].payload.to_vec(), clean, "in-episode frame flipped");
        assert_eq!(
            out[1]
                .payload
                .to_vec()
                .iter()
                .zip(&clean)
                .filter(|(a, b)| a != b)
                .count(),
            1,
            "exactly one byte differs"
        );
        assert_eq!(out[2].payload.to_vec(), clean);
    }

    #[test]
    fn corrupt_filter_copy_on_write_leaves_original_bytes_alone() {
        let shared = Bytes::from(vec![0xAAu8; 100]);
        let mut s = CorruptFilter::new(
            Time::ZERO..Time::from_secs(1),
            1.0,
            DetRng::seed_from_u64(4),
        );
        let out = pass(
            &mut s,
            Time::ZERO,
            Frame::new(1, Addr(1), Addr(2), shared.clone(), Time::ZERO),
        )
        .expect("corruption never drops");
        assert_ne!(out.payload.to_vec(), shared.to_vec());
        assert_eq!(shared.as_ref(), &vec![0xAAu8; 100][..], "original intact");
    }

    #[test]
    fn a_typed_segment_is_corrupted_where_its_wire_image_would_be() {
        use crate::segment::{Flags, Segment};
        let seg = Segment {
            payload: Bytes::from(vec![0x5Au8; 300]),
            ..Segment::control(443, 50000, 7, 9, Flags::ACK)
        };
        let episode = Time::from_secs(1)..Time::from_secs(2);
        let mut typed = CorruptFilter::new(episode.clone(), 0.5, DetRng::seed_from_u64(5));
        let mut wire = CorruptFilter::new(episode, 0.5, DetRng::seed_from_u64(5));
        for i in 0..200u64 {
            let at = Time::from_millis(900 + i);
            let a = pass(
                &mut typed,
                at,
                Frame::new(i, Addr(1), Addr(2), seg.clone(), at),
            );
            let b = pass(
                &mut wire,
                at,
                Frame::new(i, Addr(1), Addr(2), seg.encode(), at),
            );
            let (a, b) = (a.expect("never dropped"), b.expect("never dropped"));
            assert_eq!(a.payload.to_vec(), b.payload.to_vec(), "frame {i}");
            // Bytes are made only for a frame the filter altered.
            let altered = a.payload.to_vec() != seg.encode().to_vec();
            assert_eq!(matches!(a.payload, Payload::Wire(_)), altered, "frame {i}");
            assert_eq!(a.payload.into_segment().is_none(), altered, "frame {i}");
        }
        assert!(typed.corrupted() > 0);
        assert_eq!(typed.corrupted(), wire.corrupted());
    }
}
