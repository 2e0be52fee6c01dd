//! Codec properties for the streaming summary types.
//!
//! The campaign journal persists `CdfSketch`/`Histogram`/`MeanAcc`
//! values and must get back *exactly* what it wrote: the resume path
//! merges recovered summaries with freshly computed ones, so the merge
//! of decoded values has to equal the merge of the originals — bit for
//! bit, including the under/overflow audit counters that ±inf samples
//! land in. The corruption properties pin the other half of the
//! contract: a damaged encoding decodes to a typed `CodecError`, never
//! a panic (frame CRCs catch damage upstream; these properties make the
//! decoder safe even when called on raw bytes). The cut properties pin
//! it exactly: a `Histogram` or `CdfSketch` encoding cut at any byte
//! fails with the same `CodecError` as a reference decode written here
//! that reads the bins one counter at a time.

use mpwifi_measure::codec::{Reader, MAX_BINS};
use mpwifi_measure::{CdfSketch, CodecError, Histogram, MeanAcc, Mergeable, SampleBuilder};
use proptest::prelude::*;

/// Dyadic samples (exact partial sums) with ±inf injected, so the
/// under/overflow blocks and the infinite-extreme paths are exercised.
fn samples_with_extremes() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        (-(1i64 << 20)..(1i64 << 20)).prop_map(|i| match i.rem_euclid(23) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            _ => i as f64 / 16.0,
        }),
        0..120,
    )
}

/// Finite dyadic samples for `MeanAcc` (an accumulator that saw both
/// infinities holds a NaN sum, which the codec deliberately refuses).
fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        (-(1i64 << 20)..(1i64 << 20)).prop_map(|i| i as f64 / 16.0),
        0..120,
    )
}

/// Narrow range so the ±65536 dyadic samples overflow/underflow often.
fn sketch(xs: &[f64]) -> CdfSketch {
    let mut s = CdfSketch::new(-1_000.0, 1_000.0, 128);
    s.extend(xs.iter().copied());
    s
}

fn hist(xs: &[f64]) -> Histogram {
    let mut h = Histogram::new(-1_000.0, 1_000.0, 64);
    h.extend(xs.iter().copied());
    h
}

fn acc(xs: &[f64]) -> MeanAcc {
    let mut m = MeanAcc::new();
    m.extend(xs.iter().copied());
    m
}

fn encode_sketch(s: &CdfSketch) -> Vec<u8> {
    let mut buf = Vec::new();
    s.encode_into(&mut buf);
    buf
}

proptest! {
    #[test]
    fn prop_sketch_round_trips_exactly(xs in samples_with_extremes()) {
        let original = sketch(&xs);
        let buf = encode_sketch(&original);
        let mut r = Reader::new(&buf);
        let decoded = CdfSketch::decode(&mut r).expect("round trip");
        r.finish("sketch").expect("decode consumed everything");
        prop_assert_eq!(&decoded, &original);
        prop_assert_eq!(decoded.out_of_range(), original.out_of_range());
    }

    #[test]
    fn prop_hist_round_trips_exactly(xs in samples_with_extremes()) {
        let original = hist(&xs);
        let mut buf = Vec::new();
        original.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = Histogram::decode(&mut r).expect("round trip");
        r.finish("hist").expect("decode consumed everything");
        prop_assert_eq!(&decoded, &original);
        // The ±inf audit counters survive: every add is still accounted.
        prop_assert_eq!(decoded.total(), xs.len() as u64);
        prop_assert_eq!(decoded.out_of_range(), original.out_of_range());
    }

    #[test]
    fn prop_acc_round_trips_exactly(xs in finite_samples()) {
        let original = acc(&xs);
        let mut buf = Vec::new();
        original.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = MeanAcc::decode(&mut r).expect("round trip");
        r.finish("acc").expect("decode consumed everything");
        prop_assert_eq!(decoded, original);
    }

    #[test]
    fn prop_decode_then_merge_equals_merge_of_originals(
        a in samples_with_extremes(),
        b in samples_with_extremes(),
        fin_a in finite_samples(),
        fin_b in finite_samples(),
    ) {
        // The resume path in one property: one side recovered from disk,
        // one side freshly computed, merged — must equal the all-fresh
        // merge exactly.
        let (sa, sb) = (sketch(&a), sketch(&b));
        let buf = encode_sketch(&sa);
        let mut recovered = CdfSketch::decode(&mut Reader::new(&buf)).expect("decode");
        recovered.merge(&sb);
        let mut fresh = sa.clone();
        fresh.merge(&sb);
        prop_assert_eq!(recovered, fresh);

        let (ha, hb) = (hist(&a), hist(&b));
        let mut buf = Vec::new();
        ha.encode_into(&mut buf);
        let mut recovered = Histogram::decode(&mut Reader::new(&buf)).expect("decode");
        recovered.merge(&hb);
        let mut fresh = ha.clone();
        fresh.merge(&hb);
        prop_assert_eq!(recovered, fresh);

        let (ma, mb) = (acc(&fin_a), acc(&fin_b));
        let mut buf = Vec::new();
        ma.encode_into(&mut buf);
        let mut recovered = MeanAcc::decode(&mut Reader::new(&buf)).expect("decode");
        recovered.merge(&mb);
        let mut fresh = ma;
        fresh.merge(&mb);
        prop_assert_eq!(recovered, fresh);
    }

    #[test]
    fn prop_truncated_sketch_is_typed_error(
        xs in samples_with_extremes(),
        cut_seed in any::<u64>(),
    ) {
        // Every strict prefix of an encoding ends mid-field: the decoder
        // must report typed truncation, not panic or misread.
        let buf = encode_sketch(&sketch(&xs));
        let cut = (cut_seed % buf.len() as u64) as usize;
        let res = CdfSketch::decode(&mut Reader::new(&buf[..cut]));
        prop_assert!(res.is_err(), "decode of {cut}/{} bytes succeeded", buf.len());
    }

    #[test]
    fn prop_corrupted_bytes_never_panic_or_half_decode(
        xs in samples_with_extremes(),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        // Flip one byte anywhere. The decode must return — Ok (the flip
        // hit a don't-care representation or produced another valid
        // value; CRC framing catches that upstream) or a typed error —
        // and an Ok value must itself re-encode and round-trip, i.e. the
        // decoder never emits a value that violates its own invariants.
        let mut buf = encode_sketch(&sketch(&xs));
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= flip;
        if let Ok(decoded) = CdfSketch::decode(&mut Reader::new(&buf)) {
            let reencoded = encode_sketch(&decoded);
            let again = CdfSketch::decode(&mut Reader::new(&reencoded)).expect("re-decode");
            prop_assert_eq!(again, decoded);
        }

        let mut hbuf = Vec::new();
        hist(&xs).encode_into(&mut hbuf);
        let hpos = (pos_seed % hbuf.len() as u64) as usize;
        hbuf[hpos] ^= flip;
        let _ = Histogram::decode(&mut Reader::new(&hbuf));

        let mut mbuf = Vec::new();
        acc(&xs.iter().copied().filter(|x| x.is_finite()).collect::<Vec<_>>())
            .encode_into(&mut mbuf);
        let mpos = (pos_seed % mbuf.len() as u64) as usize;
        mbuf[mpos] ^= flip;
        let _ = MeanAcc::decode(&mut Reader::new(&mbuf));
    }
}

/// Reference `Histogram::decode` up to its sum check: the same reads in
/// the same order, the bins one `u64` at a time.
fn reference_hist(r: &mut Reader<'_>) -> Result<(), CodecError> {
    const WHAT: &str = "Histogram";
    r.version(WHAT, Histogram::CODEC_VERSION)?;
    let lo = r.f64(WHAT)?;
    let hi = r.f64(WHAT)?;
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return Err(CodecError::Invalid {
            what: WHAT,
            detail: "bad bin range",
        });
    }
    let n = r.u32(WHAT)?;
    if n == 0 || n > MAX_BINS {
        return Err(CodecError::Invalid {
            what: WHAT,
            detail: "bin count out of range",
        });
    }
    for _ in 0..n {
        r.u64(WHAT)?;
    }
    for _ in 0..3 {
        r.u64(WHAT)?;
    }
    Ok(())
}

/// Reference `CdfSketch::decode` on a valid encoding's prefix: its
/// histogram, then the two extremes.
fn reference_sketch(r: &mut Reader<'_>) -> Result<(), CodecError> {
    reference_hist(r)?;
    r.f64("CdfSketch")?;
    r.f64("CdfSketch")?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_cut_histogram_fails_like_a_counter_by_counter_read(
        xs in samples_with_extremes(),
    ) {
        let mut buf = Vec::new();
        hist(&xs).encode_into(&mut buf);
        for cut in 0..=buf.len() {
            let got = Histogram::decode(&mut Reader::new(&buf[..cut])).map(|_| ());
            let want = reference_hist(&mut Reader::new(&buf[..cut]));
            prop_assert_eq!(got, want, "cut at {} of {}", cut, buf.len());
        }
    }

    #[test]
    fn prop_cut_sketch_fails_like_a_counter_by_counter_read(
        xs in samples_with_extremes(),
    ) {
        let buf = encode_sketch(&sketch(&xs));
        for cut in 0..=buf.len() {
            let got = CdfSketch::decode(&mut Reader::new(&buf[..cut])).map(|_| ());
            let want = reference_sketch(&mut Reader::new(&buf[..cut]));
            prop_assert_eq!(got, want, "cut at {} of {}", cut, buf.len());
        }
    }
}
