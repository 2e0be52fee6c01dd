//! # mpwifi-measure
//!
//! Measurement statistics for the study's analysis pipeline:
//!
//! * [`Cdf`] — exact empirical CDFs with quantile and fraction-below
//!   queries: the batch type behind every CDF figure in the paper;
//! * [`CdfSketch`] / [`MeanAcc`] — bounded-memory streaming statistics
//!   that merge associatively across campaign shards;
//! * [`SampleBuilder`] / [`Mergeable`] — the uniform construction and
//!   merge surface shared by the streaming summary types;
//! * [`codec`] — the hand-rolled versioned binary codec the campaign
//!   journal uses to persist and recover streaming summaries;
//! * [`kmeans`] — geographic clustering with a 100 km radius, the
//!   grouping behind Table 1;
//! * [`render`] — plain-text tables and gnuplot-style data series for
//!   the `repro` binary's output.

pub mod cdf;
pub mod codec;
pub mod geo;
pub mod hist;
pub mod kmeans;
pub mod render;
pub mod sketch;
pub mod stream;

pub use cdf::Cdf;
pub use codec::CodecError;
pub use geo::{haversine_km, GeoPoint};
pub use hist::{jain_fairness, Histogram};
pub use kmeans::{cluster_geo, GeoCluster};
pub use render::{series_block, series_block_iter, TextTable};
pub use sketch::{CdfSketch, MeanAcc};
pub use stream::{Mergeable, SampleBuilder};
