//! Per-interface packet logs — the simulator's `tcpdump`.
//!
//! The paper plots packet activity per interface over time (Figure 15)
//! and feeds power models from the same timelines (Figure 16). A
//! [`PacketLog`] records every frame transmitted or received on one
//! client interface.

use mpwifi_simcore::{Dur, Time};

/// Direction of a logged packet, from the client's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketDir {
    /// Client sent it (entered the uplink).
    Tx,
    /// Client received it (exited the downlink).
    Rx,
}

/// One logged packet.
#[derive(Debug, Clone, Copy)]
pub struct PacketEvent {
    /// When it crossed the interface.
    pub at: Time,
    /// Direction.
    pub dir: PacketDir,
    /// Bytes on the wire.
    pub bytes: usize,
}

/// Chronological packet activity of one interface.
#[derive(Debug, Clone, Default)]
pub struct PacketLog {
    events: Vec<PacketEvent>,
}

impl PacketLog {
    /// Empty log.
    pub fn new() -> PacketLog {
        PacketLog::default()
    }

    /// Record one packet.
    pub fn record(&mut self, at: Time, dir: PacketDir, bytes: usize) {
        self.events.push(PacketEvent { at, dir, bytes });
    }

    /// All events in order.
    pub fn events(&self) -> &[PacketEvent] {
        &self.events
    }

    /// Time of the most recent packet in either direction, if any.
    /// Stall forensics use this to show when an interface went dark.
    pub fn last_activity(&self) -> Option<Time> {
        self.events.last().map(|e| e.at)
    }

    /// Number of packets logged.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total bytes in the given direction.
    pub fn bytes(&self, dir: PacketDir) -> u64 {
        self.events
            .iter()
            .filter(|e| e.dir == dir)
            .map(|e| e.bytes as u64)
            .sum()
    }

    /// Intervals during which the interface was "active", closing gaps
    /// shorter than `gap`. Feeds the radio power model.
    pub fn busy_intervals(&self, gap: Dur) -> Vec<(Time, Time)> {
        let mut out: Vec<(Time, Time)> = Vec::new();
        for e in &self.events {
            match out.last_mut() {
                Some((_, end)) if e.at <= *end + gap => {
                    if e.at > *end {
                        *end = e.at;
                    }
                }
                _ => out.push((e.at, e.at)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sums() {
        let mut log = PacketLog::new();
        log.record(Time::from_millis(1), PacketDir::Tx, 100);
        log.record(Time::from_millis(2), PacketDir::Rx, 1500);
        log.record(Time::from_millis(3), PacketDir::Tx, 40);
        assert_eq!(log.len(), 3);
        assert_eq!(log.bytes(PacketDir::Tx), 140);
        assert_eq!(log.bytes(PacketDir::Rx), 1500);
    }

    #[test]
    fn busy_intervals_merge_close_activity() {
        let mut log = PacketLog::new();
        for ms in [0, 10, 20, 500, 510] {
            log.record(Time::from_millis(ms), PacketDir::Tx, 100);
        }
        let busy = log.busy_intervals(Dur::from_millis(100));
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[0], (Time::ZERO, Time::from_millis(20)));
        assert_eq!(busy[1], (Time::from_millis(500), Time::from_millis(510)));
    }

    #[test]
    fn empty_log_behaves() {
        let log = PacketLog::new();
        assert!(log.is_empty());
        assert!(log.busy_intervals(Dur::from_millis(1)).is_empty());
    }
}
