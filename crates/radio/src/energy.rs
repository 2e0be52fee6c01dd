//! Radio power and energy: the model behind Figure 16.
//!
//! The paper measured tethered phones with a Monsoon power monitor and
//! found (Figure 16):
//!
//! * a 1 W base level (screen + CPU) with all radios quiet;
//! * WiFi active around 1.5–2 W total, dropping back promptly;
//! * LTE active around 3–4 W total;
//! * after LTE's last packet, power stays near **2 W for ~15 seconds**
//!   ("tail energy", the RRC `CONNECTED→IDLE` demotion timer) — so a
//!   backup-mode LTE subflow that only carries SYN and FIN still burns
//!   two full tails, and flows shorter than 15 s save almost nothing.
//!
//! [`PowerModel::power_timeline`] converts a packet log into a piecewise
//! power curve; [`PowerModel::energy`] integrates it.

use mpwifi_sim::PacketLog;
use mpwifi_simcore::{Dur, Time, TimeSeries};
use serde::{Deserialize, Serialize};

/// Which radio a timeline models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RadioKind {
    /// 802.11 with PSM-style quick sleep.
    Wifi,
    /// LTE with an RRC tail.
    Lte,
}

/// Power-state parameters (Watts are *total device* power, matching the
/// Monsoon plots in Figure 16).
///
/// ```
/// use mpwifi_radio::{PowerModel, RadioKind};
/// use mpwifi_sim::{PacketDir, PacketLog};
/// use mpwifi_simcore::Time;
///
/// // One lone packet at t = 0 still costs a full 15 s LTE tail.
/// let mut log = PacketLog::new();
/// log.record(Time::ZERO, PacketDir::Tx, 100);
/// let e = PowerModel::default().energy(RadioKind::Lte, &log, Time::from_secs(30));
/// assert!(e.tail_j > 14.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerModel {
    /// Idle device power (screen + CPU).
    pub base_w: f64,
    /// Total power while WiFi is actively transferring.
    pub wifi_active_w: f64,
    /// How long WiFi lingers at active power after the last packet.
    pub wifi_linger: Dur,
    /// Total power while LTE is actively transferring.
    pub lte_active_w: f64,
    /// Total power during the LTE tail.
    pub lte_tail_w: f64,
    /// LTE tail duration (RRC demotion timer).
    pub lte_tail: Dur,
    /// Gap between packets that still counts as one active period.
    pub merge_gap: Dur,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            base_w: 1.0,
            wifi_active_w: 1.7,
            wifi_linger: Dur::from_millis(200),
            lte_active_w: 3.4,
            lte_tail_w: 2.0,
            lte_tail: Dur::from_secs(15),
            merge_gap: Dur::from_millis(300),
        }
    }
}

/// Integrated energy split by state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Joules at base power.
    pub base_j: f64,
    /// Joules above base while actively transferring.
    pub active_j: f64,
    /// Joules above base during tails/lingers.
    pub tail_j: f64,
}

impl EnergyBreakdown {
    /// Radio energy (everything above base).
    pub fn radio_j(&self) -> f64 {
        self.active_j + self.tail_j
    }
}

impl PowerModel {
    fn active_w(&self, kind: RadioKind) -> f64 {
        match kind {
            RadioKind::Wifi => self.wifi_active_w,
            RadioKind::Lte => self.lte_active_w,
        }
    }

    fn tail_w(&self, kind: RadioKind) -> f64 {
        match kind {
            RadioKind::Wifi => self.base_w, // WiFi has no costly tail
            RadioKind::Lte => self.lte_tail_w,
        }
    }

    fn tail_dur(&self, kind: RadioKind) -> Dur {
        match kind {
            RadioKind::Wifi => self.wifi_linger,
            RadioKind::Lte => self.lte_tail,
        }
    }

    /// Piecewise-constant power over `[0, horizon]`: each point `(t, w)`
    /// means the power is `w` from `t` until the next point.
    pub fn power_timeline(&self, kind: RadioKind, log: &PacketLog, horizon: Time) -> TimeSeries {
        let mut ts = TimeSeries::new();
        let busy = log.busy_intervals(self.merge_gap);
        let active = self.active_w(kind);
        let tail = self.tail_w(kind);
        let tail_len = self.tail_dur(kind);
        ts.push(Time::ZERO, self.base_w);
        for (i, &(start, end)) in busy.iter().enumerate() {
            if start > horizon {
                break;
            }
            push_level(&mut ts, start, active);
            let tail_start = end;
            let tail_end = tail_start + tail_len;
            // Next activity may begin inside the tail.
            let next_start = busy.get(i + 1).map(|&(s, _)| s);
            let tail_cut = next_start.map_or(tail_end, |s| s.min(tail_end));
            push_level(&mut ts, tail_start, tail.max(self.base_w));
            if next_start.is_none_or(|s| s >= tail_end) {
                push_level(&mut ts, tail_cut, self.base_w);
            }
        }
        ts
    }

    /// Integrate a power timeline over `[0, horizon]` into an energy
    /// breakdown.
    pub fn energy(&self, kind: RadioKind, log: &PacketLog, horizon: Time) -> EnergyBreakdown {
        let ts = self.power_timeline(kind, log, horizon);
        let pts = ts.points();
        let mut out = EnergyBreakdown::default();
        let active = self.active_w(kind);
        for (i, &(t, w)) in pts.iter().enumerate() {
            let end = pts.get(i + 1).map_or(horizon, |&(t2, _)| t2).min(horizon);
            if end <= t {
                continue;
            }
            let dt = (end - t).as_secs_f64();
            out.base_j += self.base_w * dt;
            let extra = (w - self.base_w).max(0.0) * dt;
            if (w - active).abs() < 1e-9 {
                out.active_j += extra;
            } else {
                out.tail_j += extra;
            }
        }
        out
    }
}

fn push_level(ts: &mut TimeSeries, at: Time, w: f64) {
    // Collapse zero-width/duplicate levels.
    if let Some((t_last, w_last)) = ts.last() {
        if t_last == at {
            // Overwrite is not supported by TimeSeries; skip equal levels.
            if (w_last - w).abs() < 1e-12 {
                return;
            }
        } else if (w_last - w).abs() < 1e-12 {
            return;
        }
    }
    ts.push(at, w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpwifi_sim::PacketDir;

    fn log_with(times_ms: &[u64]) -> PacketLog {
        let mut log = PacketLog::new();
        for &ms in times_ms {
            log.record(Time::from_millis(ms), PacketDir::Tx, 100);
        }
        log
    }

    #[test]
    fn idle_log_is_all_base_energy() {
        let m = PowerModel::default();
        let e = m.energy(RadioKind::Lte, &PacketLog::new(), Time::from_secs(10));
        assert_eq!(e.radio_j(), 0.0);
    }

    #[test]
    fn lte_tail_burns_fifteen_seconds_at_two_watts() {
        let m = PowerModel::default();
        // One packet at t=0; horizon well past the tail.
        let e = m.energy(RadioKind::Lte, &log_with(&[0]), Time::from_secs(30));
        // Tail energy = (2.0 - 1.0) W * 15 s = 15 J.
        assert!((e.tail_j - 15.0).abs() < 0.2, "tail_j {}", e.tail_j);
    }

    #[test]
    fn wifi_has_negligible_tail() {
        let m = PowerModel::default();
        let e = m.energy(RadioKind::Wifi, &log_with(&[0]), Time::from_secs(30));
        assert!(e.tail_j < 0.2, "wifi tail {}", e.tail_j);
    }

    #[test]
    fn backup_lte_syn_fin_costs_two_tails() {
        // The Figure 16c scenario: only a SYN at t=0 and a FIN at t=20 s
        // cross the LTE backup interface, yet the radio burns ~30 J of
        // non-base energy.
        let m = PowerModel::default();
        let e = m.energy(RadioKind::Lte, &log_with(&[0, 20_000]), Time::from_secs(40));
        assert!(
            e.radio_j() > 28.0,
            "two tails expected, radio_j {}",
            e.radio_j()
        );
    }

    #[test]
    fn active_transfer_uses_active_power() {
        let m = PowerModel::default();
        // Continuous activity for 10 s (packets every 100 ms).
        let times: Vec<u64> = (0..100).map(|i| i * 100).collect();
        let e = m.energy(RadioKind::Lte, &log_with(&times), Time::from_secs(10));
        // ~10 s at 3.4 W (minus base 1.0) => ~24 J active, no tail within
        // horizon.
        assert!((e.active_j - 23.8).abs() < 1.0, "active_j {}", e.active_j);
    }

    #[test]
    fn short_flow_saves_little_with_lte_backup() {
        // The paper's headline energy finding: for flows shorter than
        // 15 s, using LTE as a mere backup saves almost nothing versus
        // using it actively, because SYN+FIN still trigger tails.
        let m = PowerModel::default();
        let horizon = Time::from_secs(25);
        // Active LTE for a 5-second flow: packets throughout.
        let active_times: Vec<u64> = (0..50).map(|i| i * 100).collect();
        let active = m.energy(RadioKind::Lte, &log_with(&active_times), horizon);
        // Backup LTE for the same flow: only SYN and FIN.
        let backup = m.energy(RadioKind::Lte, &log_with(&[0, 5_000]), horizon);
        let saving = 1.0 - backup.radio_j() / active.radio_j();
        assert!(
            saving < 0.45,
            "backup mode should save little for short flows, saved {:.0}%",
            saving * 100.0
        );
    }

    #[test]
    fn timeline_levels_are_sane() {
        let m = PowerModel::default();
        let ts = m.power_timeline(RadioKind::Lte, &log_with(&[100, 200]), Time::from_secs(30));
        for &(_, w) in ts.points() {
            assert!((1.0..=3.4).contains(&w), "power level {w}");
        }
        // Starts at base, ends at base.
        assert_eq!(ts.points().first().unwrap().1, 1.0);
        assert_eq!(ts.points().last().unwrap().1, 1.0);
    }

    #[test]
    fn tail_interrupted_by_new_activity() {
        let m = PowerModel::default();
        // Activity at 0 and again at 5 s (inside the 15 s tail).
        let e_gap = m.energy(RadioKind::Lte, &log_with(&[0, 5_000]), Time::from_secs(25));
        // Single burst then silence.
        let e_one = m.energy(RadioKind::Lte, &log_with(&[0]), Time::from_secs(25));
        // The interrupted tail costs less than two full tails.
        assert!(e_gap.tail_j < 2.0 * e_one.tail_j);
        assert!(e_gap.tail_j > e_one.tail_j * 0.9);
    }
}
