//! Link specifications and pipeline construction.
//!
//! A [`LinkSpec`] captures everything the study varies about an access
//! link: uplink/downlink service (fixed rate or Mahimahi-style delivery
//! trace), propagation RTT, queue size, and random loss. [`PathPair`]
//! realizes a spec as two `mpwifi-netem` pipelines.

use mpwifi_netem::{
    CorruptFilter, DelayStage, DeliveryTrace, FaultKind, FaultPlan, GilbertElliottFilter,
    LinkQueue, LossFilter, Pipeline, ReorderStage,
};
use mpwifi_simcore::{DetRng, Dur, Time};
use serde::{Deserialize, Serialize};

/// Service process of one direction of a link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServiceSpec {
    /// Constant bit rate (bits/second).
    Rate(u64),
    /// Mahimahi-style cyclic delivery-opportunity trace.
    Trace(DeliveryTrace),
}

impl ServiceSpec {
    /// Average throughput of the service in bits/second (for reporting).
    pub fn average_bps(&self) -> f64 {
        match self {
            ServiceSpec::Rate(bps) => *bps as f64,
            ServiceSpec::Trace(t) => t.average_bps(mpwifi_netem::MTU),
        }
    }
}

/// Everything that characterizes one emulated access link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Uplink (client to server) service.
    pub up: ServiceSpec,
    /// Downlink (server to client) service.
    pub down: ServiceSpec,
    /// Two-way propagation delay (split evenly between directions).
    pub rtt: Dur,
    /// Drop-tail queue bound per direction, bytes.
    pub queue_bytes: usize,
    /// Independent loss probability per direction.
    pub loss: f64,
    /// Probability that a frame is held for extra delay (reordering).
    /// Zero on all paper scenarios; available for robustness studies.
    #[serde(default)]
    pub reorder_prob: f64,
    /// Maximum extra delay for a reordered frame.
    #[serde(default)]
    pub reorder_extra: Dur,
}

impl LinkSpec {
    /// A symmetric fixed-rate link (convenience for tests).
    pub fn symmetric(bps: u64, rtt: Dur) -> LinkSpec {
        LinkSpec {
            up: ServiceSpec::Rate(bps),
            down: ServiceSpec::Rate(bps),
            rtt,
            queue_bytes: 512 * 1024,
            loss: 0.0,
            reorder_prob: 0.0,
            reorder_extra: Dur::ZERO,
        }
    }

    /// An asymmetric fixed-rate link.
    pub fn asymmetric(up_bps: u64, down_bps: u64, rtt: Dur) -> LinkSpec {
        LinkSpec {
            up: ServiceSpec::Rate(up_bps),
            down: ServiceSpec::Rate(down_bps),
            rtt,
            queue_bytes: 512 * 1024,
            loss: 0.0,
            reorder_prob: 0.0,
            reorder_extra: Dur::ZERO,
        }
    }

    fn build_direction(
        &self,
        service: &ServiceSpec,
        label: String,
        rng: &mut DetRng,
        faults: Option<&FaultPlan>,
    ) -> Pipeline {
        let queue = match service {
            ServiceSpec::Rate(bps) => LinkQueue::fixed_rate(*bps, self.queue_bytes),
            ServiceSpec::Trace(t) => LinkQueue::trace_driven(t.clone(), self.queue_bytes),
        };
        let mut p = Pipeline::new(label, queue, DelayStage::new(self.rtt / 2));
        if self.loss > 0.0 {
            p = p.with_filter(LossFilter::new(self.loss, rng.derive(0xF00D)));
        }
        if self.reorder_prob > 0.0 {
            p = p.with_stage(ReorderStage::new(
                self.reorder_prob,
                self.reorder_extra.max(Dur::from_micros(1)),
                rng.derive(0x0DD5),
            ));
        }
        // Episode-gated fault filters ride at the end of the tail: one
        // per scheduled burst-loss / corruption event, each with its own
        // derived RNG stream so adding or removing one event never
        // perturbs another. When no plan is attached this loop runs
        // zero times and draws nothing — a fault-free build is
        // bit-identical to the pre-fault construction.
        let events = faults.map_or(&[][..], |plan| &plan.events);
        for (i, ev) in events.iter().enumerate() {
            let idx = i as u64;
            p = match ev.kind {
                FaultKind::BurstLoss { duration, ge } => {
                    let rng = rng.derive(0xFA17_0000 + idx);
                    p.with_filter(GilbertElliottFilter::new(ev.at..ev.at + duration, ge, rng))
                }
                FaultKind::Corruption { duration, prob } => {
                    let rng = rng.derive(0xC044_0000 + idx);
                    p.with_filter(CorruptFilter::new(ev.at..ev.at + duration, prob, rng))
                }
                _ => p,
            };
        }
        p
    }
}

/// A realized link: uplink and downlink pipelines.
#[derive(Debug)]
pub struct PathPair {
    /// Client-to-server direction.
    pub up: Pipeline,
    /// Server-to-client direction.
    pub down: Pipeline,
}

impl PathPair {
    /// Build pipelines from a spec, appending the episode-gated filters
    /// (burst loss, corruption) demanded by `faults`; `None` adds none
    /// and draws nothing. `name` prefixes the pipeline labels.
    pub fn build(
        spec: &LinkSpec,
        name: &str,
        rng: &mut DetRng,
        faults: Option<&FaultPlan>,
    ) -> PathPair {
        PathPair {
            up: spec.build_direction(&spec.up, format!("{name}-up"), rng, faults),
            down: spec.build_direction(&spec.down, format!("{name}-down"), rng, faults),
        }
    }

    /// Cut or restore both directions (physical unplug semantics).
    pub fn set_up(&mut self, up: bool) {
        self.up.set_up(up);
        self.down.set_up(up);
    }

    /// Frames currently queued or in flight across both directions.
    /// Stall forensics report this as the link's queue depth.
    pub fn backlog(&self) -> usize {
        self.up.backlog() + self.down.backlog()
    }

    /// Earliest instant a frame can leave either direction (a lower
    /// bound, see [`Pipeline::next_ready`]).
    pub fn next_ready(&self) -> Option<Time> {
        Time::earlier(self.up.next_ready(), self.down.next_ready())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mpwifi_netem::{Addr, Frame};

    /// Test-local allocating wrapper: keeps assertions terse without
    /// reviving the production `poll` (drivers reuse scratch buffers
    /// via `poll_into`).
    fn poll(pp: &mut PathPair, now: Time) -> (Vec<Frame>, Vec<Frame>) {
        let mut up_out = Vec::new();
        let mut down_out = Vec::new();
        pp.up.poll_into(now, &mut up_out);
        pp.down.poll_into(now, &mut down_out);
        (up_out, down_out)
    }

    #[test]
    fn symmetric_spec_builds() {
        let mut rng = DetRng::seed_from_u64(1);
        let spec = LinkSpec::symmetric(10_000_000, Dur::from_millis(40));
        let mut pp = PathPair::build(&spec, "wifi", &mut rng, None);
        assert_eq!(pp.up.label(), "wifi-up");
        // 1500 B at 10 Mbit/s = 1.2 ms serialization + 20 ms one-way:
        // the frame next leaves the link at 21.2 ms.
        let f = Frame::new(
            1,
            Addr(1),
            Addr(10),
            Bytes::from(vec![0u8; 1500]),
            Time::ZERO,
        );
        pp.up.push(Time::ZERO, f);
        let ready = pp.next_ready().unwrap();
        assert_eq!(ready, Time::from_micros(21_200));
        let (ups, _) = poll(&mut pp, Time::from_micros(21_200));
        assert_eq!(ups.len(), 1);
    }

    #[test]
    fn loss_spec_adds_loss_filter() {
        let mut rng = DetRng::seed_from_u64(1);
        let spec = LinkSpec {
            loss: 1.0,
            ..LinkSpec::symmetric(10_000_000, Dur::from_millis(10))
        };
        let mut pp = PathPair::build(&spec, "lossy", &mut rng, None);
        let f = Frame::new(
            1,
            Addr(1),
            Addr(10),
            Bytes::from(vec![0u8; 100]),
            Time::ZERO,
        );
        pp.up.push(Time::ZERO, f);
        let (ups, _) = poll(&mut pp, Time::from_secs(1));
        assert!(ups.is_empty(), "100% loss drops everything");
    }

    #[test]
    fn trace_spec_average_rate() {
        let spec = ServiceSpec::Trace(DeliveryTrace::constant_pps(1000));
        assert!((spec.average_bps() - 12_000_000.0).abs() < 1.0);
        assert_eq!(ServiceSpec::Rate(5_000_000).average_bps(), 5_000_000.0);
    }

    #[test]
    fn cut_blackholes_both_directions() {
        let mut rng = DetRng::seed_from_u64(1);
        let spec = LinkSpec::symmetric(10_000_000, Dur::from_millis(1));
        let mut pp = PathPair::build(&spec, "x", &mut rng, None);
        pp.set_up(false);
        pp.up.push(
            Time::ZERO,
            Frame::new(
                1,
                Addr(1),
                Addr(10),
                Bytes::from(vec![0u8; 100]),
                Time::ZERO,
            ),
        );
        pp.down.push(
            Time::ZERO,
            Frame::new(
                2,
                Addr(10),
                Addr(1),
                Bytes::from(vec![0u8; 100]),
                Time::ZERO,
            ),
        );
        let (u, d) = poll(&mut pp, Time::from_secs(1));
        assert!(u.is_empty() && d.is_empty());
    }
}
