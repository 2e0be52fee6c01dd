//! Simulated time.
//!
//! [`Time`] is an absolute instant on the simulation clock and [`Dur`] a
//! span between instants. Both are nanosecond-resolution `u64`s, giving
//! ~584 years of range — far beyond any scenario in this workspace — while
//! keeping all arithmetic exact and deterministic (no floating point on the
//! critical path).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of simulated time, in nanoseconds since the start
/// of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Dur(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; used as an "infinitely far"
    /// sentinel when computing minima over optional deadlines.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Panics on negative or
    /// non-finite input.
    pub fn from_secs_f64(s: f64) -> Time {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        Time((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span since `earlier`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The earlier of two optional deadlines (`None` = not armed). The
    /// event loop folds every timer of every connection through this
    /// several times per step, so it is a plain match rather than an
    /// iterator chain.
    #[inline]
    pub fn earlier(a: Option<Time>, b: Option<Time>) -> Option<Time> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }
}

impl Dur {
    /// A zero-length span.
    pub const ZERO: Dur = Dur(0);
    /// The greatest representable span.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Panics on negative or
    /// non-finite input.
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        Dur((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True iff this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }

    /// Scale by a non-negative float factor (used by RTO backoff caps and
    /// jitter). Saturates at `Dur::MAX`.
    pub fn mul_f64(self, k: f64) -> Dur {
        assert!(k.is_finite() && k >= 0.0, "invalid factor: {k}");
        let v = self.0 as f64 * k;
        if v >= u64::MAX as f64 {
            Dur::MAX
        } else {
            Dur(v.round() as u64)
        }
    }

    /// The duration needed to serialize `bytes` at `bits_per_sec`.
    /// Rounds up to the next nanosecond so back-to-back transmissions
    /// never exceed the configured rate. Computed in `u64` whenever
    /// `bytes * 8e9` fits (any frame, every call a link makes) and in
    /// `u128` otherwise, saturating at [`Dur::MAX`].
    pub fn for_bytes_at_rate(bytes: u64, bits_per_sec: u64) -> Dur {
        assert!(bits_per_sec > 0, "rate must be positive");
        match bytes.checked_mul(8_000_000_000) {
            Some(bit_ns) => Dur(bit_ns.div_ceil(bits_per_sec)),
            None => {
                let bit_ns = bytes as u128 * 8_000_000_000;
                let ns = bit_ns.div_ceil(bits_per_sec as u128);
                Dur(ns.min(u64::MAX as u128) as u64)
            }
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("simulated time underflow"))
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign<Dur> for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign<Dur> for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, k: u64) -> Dur {
        Dur(self.0.checked_mul(k).expect("duration overflow"))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}us", self.0 as f64 / 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Time::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(Time::from_secs(2).as_millis(), 2_000);
        assert_eq!(Time::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Dur::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn arithmetic_basics() {
        let t = Time::from_millis(10) + Dur::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - Time::from_millis(5)).as_millis(), 10);
        assert_eq!((Dur::from_millis(4) * 3).as_millis(), 12);
        assert_eq!((Dur::from_millis(12) / 4).as_millis(), 3);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = Time::from_millis(3);
        let b = Time::from_millis(8);
        assert_eq!(b.saturating_since(a).as_millis(), 5);
        assert_eq!(a.saturating_since(b), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let _ = Time::from_millis(1) - Time::from_millis(2);
    }

    #[test]
    fn serialization_time_for_bytes() {
        // 1500 bytes at 12 Mbit/s = 1 ms exactly.
        assert_eq!(
            Dur::for_bytes_at_rate(1500, 12_000_000),
            Dur::from_millis(1)
        );
        // Rounds up: 1 byte at 1 Tbit/s is 8 bits / 1e12 bps = 0.008 ns -> 1 ns.
        assert_eq!(Dur::for_bytes_at_rate(1, 1_000_000_000_000).as_nanos(), 1);
    }

    #[test]
    fn mul_f64_saturates() {
        assert_eq!(Dur::MAX.mul_f64(2.0), Dur::MAX);
        assert_eq!(Dur::from_secs(2).mul_f64(1.5), Dur::from_secs(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Dur::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Dur::from_micros(9)), "9us");
    }

    proptest! {
        #[test]
        fn prop_add_sub_inverse(base in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
            let t = Time::from_nanos(base);
            let dur = Dur::from_nanos(d);
            prop_assert_eq!((t + dur) - dur, t);
            prop_assert_eq!((t + dur) - t, dur);
        }

        #[test]
        fn prop_rate_time_monotone_in_bytes(b1 in 0u64..1_000_000, b2 in 0u64..1_000_000,
                                            rate in 1_000u64..10_000_000_000) {
            let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
            prop_assert!(Dur::for_bytes_at_rate(lo, rate) <= Dur::for_bytes_at_rate(hi, rate));
        }

        #[test]
        fn prop_rate_time_equals_the_wide_computation(
            // Half frame-sized counts, half anywhere in `u64` (where the
            // narrow product overflows).
            bytes in (any::<bool>(), any::<u64>()).prop_map(|(frame, b)| if frame { b % 100_000 } else { b }),
            rate in (any::<bool>(), 1u64..u64::MAX).prop_map(|(link, r)| if link { r % 10_000_000_000 + 1 } else { r }),
        ) {
            // The `u128` form every byte count used to take.
            let wide = (bytes as u128 * 8 * 1_000_000_000).div_ceil(rate as u128);
            let wide = Dur(wide.min(u64::MAX as u128) as u64);
            prop_assert_eq!(Dur::for_bytes_at_rate(bytes, rate), wide);
        }

        #[test]
        fn prop_rate_time_antitone_in_rate(bytes in 1u64..1_000_000,
                                           r1 in 1_000u64..10_000_000_000,
                                           r2 in 1_000u64..10_000_000_000) {
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            prop_assert!(Dur::for_bytes_at_rate(bytes, hi) <= Dur::for_bytes_at_rate(bytes, lo));
        }

        #[test]
        fn prop_secs_f64_round_trip(ns in 0u64..1_000_000_000_000) {
            let d = Dur::from_nanos(ns);
            let back = Dur::from_secs_f64(d.as_secs_f64());
            // f64 has 52 mantissa bits; allow tiny rounding slack.
            let err = back.as_nanos().abs_diff(d.as_nanos());
            prop_assert!(err <= 256, "round trip error {err}ns");
        }
    }
}
