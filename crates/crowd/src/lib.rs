//! # mpwifi-crowd
//!
//! The Cell vs WiFi crowdsourced study (paper Section 2), reproduced
//! end-to-end:
//!
//! * [`world`] — the 22 location clusters of Table 1 (name, coordinates,
//!   run count, LTE-win fraction) as generative profiles;
//! * [`measure`] — one measurement run: a 1 MB TCP upload + download on
//!   each network plus 10 pings, executed either through the full packet
//!   simulator or through a calibrated analytic model;
//! * [`analysis`] — the paper's analysis pipeline: geographic k-means
//!   (100 km radius) reproducing Table 1, and the CDFs of Figures 3, 4
//!   and 6;
//! * [`campaign`] — population-scale campaigns: 10⁵–10⁶ synthetic users
//!   fanned over the Table 1 geography, streamed into bounded-memory
//!   mergeable summaries with per-worker `SimArena` reuse;
//! * [`journal`] — the crash-consistent campaign checkpoint: an
//!   append-only CRC32-framed record log of completed shard summaries,
//!   with longest-valid-prefix recovery and a typed resume-refusal
//!   taxonomy ([`ResumeError`]).
//!
//! The data is synthetic-but-calibrated (DESIGN.md §1): run counts and
//! cluster geometry follow Table 1 exactly; per-location WiFi/LTE rate
//! distributions are tuned so each cluster's LTE-win fraction matches
//! the paper's last column.

pub mod analysis;
pub mod campaign;
pub mod journal;
pub mod measure;
pub mod world;

pub use analysis::{Differences, Table1Row};
pub use campaign::{
    merge_agreement, run_campaign, run_campaign_resumable, run_campaign_resumable_with,
    run_campaign_with, CampaignConfig, CampaignSummary, ClusterTally, FloatTail, ResumedCampaign,
    ShardSummary, CAMPAIGN_CLUSTERS,
};
pub use journal::{
    scan_journal, scan_journal_with, Checkpoint, JournalHeader, Recovery, ResumeError,
};
pub use measure::{measure_pair, measure_pair_arena, RunMeasurement, RunMode};
pub use mpwifi_simcore::fanout::StealQueue;
pub use world::{dataset_to_csv, generate_dataset, paper_clusters, ClusterProfile, MeasurementRun};
