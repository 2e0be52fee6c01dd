//! Streaming-construction and merge traits shared by the summary types.
//!
//! The crowd campaign (Section 5 at 10⁵–10⁶ users) cannot hold per-run
//! sample vectors: each worker folds its runs into a bounded-memory
//! shard summary, and shards combine associatively at the end. Two
//! traits capture that contract:
//!
//! * [`SampleBuilder`] — the uniform `push`/`extend`/`finish` surface
//!   for constructing a streaming summary incrementally (the exact
//!   [`crate::Cdf`] is a batch type and is not one of them);
//! * [`Mergeable`] — associative, commutative combination of two
//!   summaries of the same shape.

/// Incremental construction of a statistic from a stream of samples.
///
/// `push` one sample at a time (or `extend` from any iterator), then
/// `finish` to obtain the summary. The implementors ([`crate::CdfSketch`],
/// [`crate::Histogram`], [`crate::MeanAcc`]) are their own output and
/// `finish` is the identity.
pub trait SampleBuilder {
    /// The summary produced by `finish`.
    type Output;

    /// Add one sample. Panics on NaN — every summary type rejects NaN
    /// at the door so merge identities stay exact.
    fn push(&mut self, x: f64);

    /// Add every sample from an iterator.
    fn extend<I: IntoIterator<Item = f64>>(&mut self, samples: I)
    where
        Self: Sized,
    {
        for x in samples {
            self.push(x);
        }
    }

    /// Consume the builder and produce the summary.
    fn finish(self) -> Self::Output
    where
        Self: Sized;
}

/// Associative, commutative combination of two summaries.
///
/// For count-based summaries ([`crate::CdfSketch`], [`crate::Histogram`]
/// and the counters inside a shard summary) merging adds integer
/// counts, so `merge(a, merge(b, c)) == merge(merge(a, b), c)` holds
/// *exactly* — any shard grouping or merge order yields the identical
/// summary. Floating-point accumulators ([`crate::MeanAcc`]) are
/// associative up to rounding; the campaign driver keeps their results
/// reproducible by always folding shards in index order.
pub trait Mergeable {
    /// Fold `other` into `self`. Panics if the two summaries have
    /// incompatible shapes (different ranges or bin counts).
    fn merge(&mut self, other: &Self);
}
