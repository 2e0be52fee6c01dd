//! Crowd campaigns: 10⁵–10⁶ synthetic users over the Table 1 geography.
//!
//! A campaign fans a synthetic user population across the paper's 22
//! location clusters (weighted by each cluster's Table 1 run count),
//! measures every user's `(WiFi, LTE)` pair, and accumulates the results
//! into bounded-memory streaming summaries ([`ShardSummary`]) instead of
//! holding per-run samples.
//!
//! Memory: a campaign holds one shared count summary, one 144-byte
//! float tail per shard ([`FloatTail`]: the mean accumulators and the
//! sketches' extremes) and each worker's in-flight shard summary. A
//! finished shard's integer counts merge into the shared summary at
//! once and the shard's summary is dropped, so another shard costs a
//! float tail, not a ~26 KB summary. A resume reads its journal one
//! frame at a time, decodes one record at a time and keeps the same
//! two things: recovered counts merged, recovered tails in shard order.
//!
//! Determinism contract: each user's RNG is seeded from
//! `mix(campaign_seed, user_index)` (an order-free splitmix-style hash),
//! the user→shard partition is a pure function of the user count and
//! `shard_users`, integer counts merge in any order (addition commutes)
//! and the float tails fold in shard-index order. Together these make
//! campaign output **byte-identical for any worker count** — the same
//! guarantee the PR 1 sharded runner gives the figure suite.
//! [`merge_agreement`] checks the sharded-vs-monolithic equivalence
//! explicitly for supervision smokes.

use crate::journal::{Checkpoint, Recovery, ResumeError};
use crate::measure::{measure_pair_in, RunMeasurement, RunMode};
use crate::world::{combined_target_adjustment, paper_clusters};
use mpwifi_measure::codec::{put_u32, put_u64, put_u8, CodecError, Reader};
use mpwifi_measure::{CdfSketch, Histogram, MeanAcc, Mergeable, SampleBuilder};
use mpwifi_radio::WirelessWorld;
use mpwifi_sim::SimArena;
use mpwifi_simcore::{fan_out, DetRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of Table 1 clusters the population is spread over.
pub const CAMPAIGN_CLUSTERS: usize = 22;

/// Campaign shape: population size, seed, fidelity, parallelism.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Synthetic user count (one measurement run per user).
    pub users: u64,
    /// Campaign seed; every user RNG derives from it order-free.
    pub seed: u64,
    /// Measurement fidelity per user ([`RunMode::Analytic`] for
    /// population sweeps, [`RunMode::FullSim`] for spot checks through
    /// the packet simulator via per-worker [`SimArena`]s).
    pub mode: RunMode,
    /// Worker threads; `0` uses the machine's available parallelism.
    /// The output is byte-identical for every value.
    pub workers: usize,
    /// Users per shard (the unit of work handed to a worker). Purely a
    /// scheduling knob: the partition is fixed by `users` and this
    /// value, never by the worker count.
    pub shard_users: u64,
}

impl CampaignConfig {
    /// Default shape: 512-user shards, auto parallelism.
    pub fn new(users: u64, seed: u64, mode: RunMode) -> CampaignConfig {
        CampaignConfig {
            users,
            seed,
            mode,
            workers: 0,
            shard_users: 512,
        }
    }

    /// Number of shards the population partitions into — a pure function
    /// of `users` and `shard_users` (never of the worker count), which is
    /// what makes journaled shard slots stable across resumes.
    pub fn num_shards(&self) -> u64 {
        self.users.div_ceil(self.shard_users.max(1))
    }

    /// Half-open user range `[lo, hi)` of shard `shard`.
    pub fn shard_bounds(&self, shard: u64) -> (u64, u64) {
        let su = self.shard_users.max(1);
        let lo = shard * su;
        (lo, (lo + su).min(self.users))
    }

    /// Worker-thread count to ask for: the configured count, or machine
    /// parallelism for 0 ([`fan_out`] clamps it to the available work).
    fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.workers
        }
    }
}

/// Per-cluster win tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterTally {
    /// Users assigned to this cluster.
    pub runs: u64,
    /// Of those, runs where LTE beat WiFi on combined throughput.
    pub lte_wins: u64,
}

/// Streaming, mergeable statistics for one shard of a campaign — and,
/// after folding, for the whole campaign. Bounded memory: sketches and
/// histograms hold fixed-size count arrays, never samples.
///
/// All distribution summaries count **integer-valued samples** (bps
/// rounded to 1 bit/s, pings in whole microseconds), so every merge adds
/// integers and the algebra is exactly associative and commutative
/// (property-tested in `tests/prop_campaign.rs`). The [`MeanAcc`]s carry
/// float sums whose grouping can matter in the last ulp, and the
/// sketches' extremes are `f64::min`/`max`; campaign byte-identity
/// across worker counts comes from folding that float half in shard
/// order, not from float associativity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSummary {
    /// Users measured.
    pub users: u64,
    /// Runs where LTE won on combined throughput (the paper's "40% of
    /// the time" metric at population scale).
    pub lte_wins: u64,
    /// WiFi download throughput distribution (bits/s).
    pub wifi_down: CdfSketch,
    /// LTE download throughput distribution (bits/s).
    pub lte_down: CdfSketch,
    /// Combined LTE − WiFi throughput difference (bits/s); its
    /// `fraction_negative` is the WiFi-win rate.
    pub combined_diff: CdfSketch,
    /// LTE − WiFi ping difference (µs).
    pub ping_diff_us: Histogram,
    /// Mean/CI of WiFi download throughput (bits/s).
    pub wifi_down_acc: MeanAcc,
    /// Mean/CI of LTE download throughput (bits/s).
    pub lte_down_acc: MeanAcc,
    /// Mean/CI of the combined throughput difference (bits/s).
    pub diff_acc: MeanAcc,
    /// Mean/CI of the ping difference (µs).
    pub ping_diff_acc: MeanAcc,
    /// Per-cluster tallies, indexed like [`paper_clusters`].
    pub clusters: Vec<ClusterTally>,
}

impl ShardSummary {
    /// An empty summary (identity element of [`Mergeable::merge`]).
    pub fn new() -> ShardSummary {
        ShardSummary {
            users: 0,
            lte_wins: 0,
            // 0–100 Mbit/s at 125 kbit/s resolution; out-of-range draws
            // land in the tracked under/overflow blocks.
            wifi_down: CdfSketch::new(0.0, 100e6, 800),
            lte_down: CdfSketch::new(0.0, 100e6, 800),
            // ±100 Mbit/s; zero sits exactly on a bin edge so
            // `fraction_negative` is exact.
            combined_diff: CdfSketch::new(-100e6, 100e6, 800),
            // ±1 s of ping difference at 2.5 ms resolution.
            ping_diff_us: Histogram::new(-1e6, 1e6, 800),
            wifi_down_acc: MeanAcc::new(),
            lte_down_acc: MeanAcc::new(),
            diff_acc: MeanAcc::new(),
            ping_diff_acc: MeanAcc::new(),
            clusters: vec![ClusterTally::default(); CAMPAIGN_CLUSTERS],
        }
    }

    /// Fold one user's measurement into the summary.
    pub fn record(&mut self, cluster_idx: usize, m: &RunMeasurement) {
        self.users += 1;
        self.clusters[cluster_idx].runs += 1;
        let wifi = m.wifi_up_bps + m.wifi_down_bps;
        let lte = m.lte_up_bps + m.lte_down_bps;
        if m.lte_wins_combined() {
            self.lte_wins += 1;
            self.clusters[cluster_idx].lte_wins += 1;
        }
        // Integer-valued samples: exactly representable, so count-based
        // merges are exact (see the type docs).
        let wifi_down = m.wifi_down_bps.round();
        let lte_down = m.lte_down_bps.round();
        let diff = (lte - wifi).round();
        let ping_diff_us =
            (m.lte_ping.as_nanos() / 1_000) as f64 - (m.wifi_ping.as_nanos() / 1_000) as f64;
        self.wifi_down.push(wifi_down);
        self.lte_down.push(lte_down);
        self.combined_diff.push(diff);
        self.ping_diff_us.add(ping_diff_us);
        self.wifi_down_acc.push(wifi_down);
        self.lte_down_acc.push(lte_down);
        self.diff_acc.push(diff);
        self.ping_diff_acc.push(ping_diff_us);
    }

    /// Fraction of users where LTE beat WiFi.
    pub fn lte_win_fraction(&self) -> f64 {
        if self.users == 0 {
            return 0.0;
        }
        self.lte_wins as f64 / self.users as f64
    }

    /// Version byte written by [`Self::encode_into`]; bump on any field
    /// or layout change so stale journals are a typed refusal.
    pub const CODEC_VERSION: u8 = 1;

    /// Append the versioned binary encoding (composing the `measure`
    /// codecs; see `measure::codec`).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(out, Self::CODEC_VERSION);
        put_u64(out, self.users);
        put_u64(out, self.lte_wins);
        self.wifi_down.encode_into(out);
        self.lte_down.encode_into(out);
        self.combined_diff.encode_into(out);
        self.ping_diff_us.encode_into(out);
        self.wifi_down_acc.encode_into(out);
        self.lte_down_acc.encode_into(out);
        self.diff_acc.encode_into(out);
        self.ping_diff_acc.encode_into(out);
        put_u32(out, self.clusters.len() as u32);
        for c in &self.clusters {
            put_u64(out, c.runs);
            put_u64(out, c.lte_wins);
        }
    }

    /// Decode one summary, re-validating every cross-field invariant
    /// [`Self::record`] maintains: each distribution saw exactly `users`
    /// samples, the cluster tallies partition the users, and win counts
    /// never exceed run counts. A decode that passes is observationally
    /// identical to a summary built by recording measurements.
    pub fn decode(r: &mut Reader<'_>) -> Result<ShardSummary, CodecError> {
        const WHAT: &str = "ShardSummary";
        let invalid = |detail: &'static str| CodecError::Invalid { what: WHAT, detail };
        r.version(WHAT, Self::CODEC_VERSION)?;
        let users = r.u64(WHAT)?;
        let lte_wins = r.u64(WHAT)?;
        let wifi_down = CdfSketch::decode(r)?;
        let lte_down = CdfSketch::decode(r)?;
        let combined_diff = CdfSketch::decode(r)?;
        let ping_diff_us = Histogram::decode(r)?;
        let wifi_down_acc = MeanAcc::decode(r)?;
        let lte_down_acc = MeanAcc::decode(r)?;
        let diff_acc = MeanAcc::decode(r)?;
        let ping_diff_acc = MeanAcc::decode(r)?;
        let n_clusters = r.u32(WHAT)?;
        if n_clusters as usize != CAMPAIGN_CLUSTERS {
            return Err(invalid("cluster count is not the Table 1 geography"));
        }
        let mut clusters = Vec::with_capacity(CAMPAIGN_CLUSTERS);
        let mut cluster_runs = 0u64;
        let mut cluster_wins = 0u64;
        for _ in 0..CAMPAIGN_CLUSTERS {
            let runs = r.u64(WHAT)?;
            let wins = r.u64(WHAT)?;
            if wins > runs {
                return Err(invalid("cluster wins exceed cluster runs"));
            }
            cluster_runs = cluster_runs
                .checked_add(runs)
                .ok_or_else(|| invalid("cluster runs overflow"))?;
            cluster_wins += wins;
            clusters.push(ClusterTally {
                runs,
                lte_wins: wins,
            });
        }
        if cluster_runs != users || cluster_wins != lte_wins || lte_wins > users {
            return Err(invalid("cluster tallies do not partition the users"));
        }
        let counts_ok = wifi_down.count() == users
            && lte_down.count() == users
            && combined_diff.count() == users
            && ping_diff_us.total() == users
            && wifi_down_acc.count() == users
            && lte_down_acc.count() == users
            && diff_acc.count() == users
            && ping_diff_acc.count() == users;
        if !counts_ok {
            return Err(invalid("summary sample counts disagree with user count"));
        }
        Ok(ShardSummary {
            users,
            lte_wins,
            wifi_down,
            lte_down,
            combined_diff,
            ping_diff_us,
            wifi_down_acc,
            lte_down_acc,
            diff_acc,
            ping_diff_acc,
            clusters,
        })
    }

    /// True when every sketch and histogram of `other` has this
    /// summary's range and bin count, so the two can merge. Every
    /// summary this build makes has the shape [`Self::new`] gives it; a
    /// decoded one may not.
    pub(crate) fn same_shape(&self, other: &ShardSummary) -> bool {
        self.wifi_down.same_shape(&other.wifi_down)
            && self.lte_down.same_shape(&other.lte_down)
            && self.combined_diff.same_shape(&other.combined_diff)
            && self.ping_diff_us.same_shape(&other.ping_diff_us)
    }
}

impl Default for ShardSummary {
    fn default() -> ShardSummary {
        ShardSummary::new()
    }
}

impl ShardSummary {
    /// The integer half of [`Mergeable::merge`]: user and win counts,
    /// the four histograms' bins and blocks, and the cluster tallies.
    /// Integer addition commutes, so these merge in whatever order
    /// shards finish. The float half is left as it is: the summary is
    /// whole again once [`Self::merge_floats`] has taken every shard's
    /// [`FloatTail`].
    pub(crate) fn merge_counts(&mut self, other: &ShardSummary) {
        self.users += other.users;
        self.lte_wins += other.lte_wins;
        self.wifi_down.merge_counts(&other.wifi_down);
        self.lte_down.merge_counts(&other.lte_down);
        self.combined_diff.merge_counts(&other.combined_diff);
        self.ping_diff_us.merge(&other.ping_diff_us);
        assert_eq!(
            self.clusters.len(),
            other.clusters.len(),
            "merging summaries with different cluster counts"
        );
        for (a, b) in self.clusters.iter_mut().zip(&other.clusters) {
            a.runs += b.runs;
            a.lte_wins += b.lte_wins;
        }
    }

    /// The fields [`Self::merge_floats`] takes from this summary.
    pub(crate) fn float_tail(&self) -> FloatTail {
        FloatTail {
            accs: [
                self.wifi_down_acc,
                self.lte_down_acc,
                self.diff_acc,
                self.ping_diff_acc,
            ],
            extremes: [
                self.wifi_down.extremes(),
                self.lte_down.extremes(),
                self.combined_diff.extremes(),
            ],
        }
    }

    /// The float half of [`Mergeable::merge`]: the mean accumulators'
    /// sums and the sketches' extremes. Their result can depend on
    /// grouping, so a campaign folds these in shard order.
    pub fn merge_floats(&mut self, tail: &FloatTail) {
        let [wifi_down, lte_down, diff, ping_diff] = &tail.accs;
        self.wifi_down_acc.merge(wifi_down);
        self.lte_down_acc.merge(lte_down);
        self.diff_acc.merge(diff);
        self.ping_diff_acc.merge(ping_diff);
        let [wifi_down, lte_down, diff] = tail.extremes;
        self.wifi_down.merge_extremes(wifi_down);
        self.lte_down.merge_extremes(lte_down);
        self.combined_diff.merge_extremes(diff);
    }
}

impl Mergeable for ShardSummary {
    fn merge(&mut self, other: &ShardSummary) {
        self.merge_counts(other);
        self.merge_floats(&other.float_tail());
    }
}

/// The float half of a [`ShardSummary`], 144 bytes: the four
/// [`MeanAcc`]s (float sums regroup in the last ulp) and the three
/// sketches' exact extremes (`f64::min` need not say which of two equal
/// zeros it keeps). Keeping the extremes on the in-order side makes the
/// fold byte-identical by construction. A journal scan hands one per
/// recovered shard to the campaign ([`Recovery::tails`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatTail {
    accs: [MeanAcc; 4],
    extremes: [(f64, f64); 3],
}

/// A finished campaign: the folded summary plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Users measured.
    pub users: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Shards the population was partitioned into.
    pub shards: u64,
    /// The merged statistics.
    pub stats: ShardSummary,
}

/// Order-free per-user seed: a splitmix64-style mix of the campaign
/// seed and the user index. Deliberately NOT `root.derive(user)` —
/// `DetRng::derive` mutates the parent, which would make user seeds
/// depend on visit order and break worker-count invariance.
fn mix(seed: u64, user: u64) -> u64 {
    let mut z = seed ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Measure one synthetic user: pick a cluster (Table 1 run-count
/// weighted), draw link conditions from that cluster's calibrated
/// world, and run the measurement at the configured fidelity.
fn measure_user(
    cfg: &CampaignConfig,
    worlds: &[WirelessWorld],
    cum_runs: &[u64],
    total_runs: u64,
    user: u64,
    arena: &mut SimArena,
    summary: &mut ShardSummary,
) {
    let mut rng = DetRng::seed_from_u64(mix(cfg.seed, user));
    let pick = rng.uniform_u64(0, total_runs);
    let cluster_idx = cum_runs.partition_point(|&c| c <= pick);
    let draw = worlds[cluster_idx].draw(&mut rng);
    let run_seed = rng.next_u64();
    let m = measure_pair_in(&draw.wifi, &draw.lte, cfg.mode, arena, run_seed);
    summary.record(cluster_idx, &m);
}

/// Per-campaign shared context: the calibrated per-cluster worlds and
/// the cumulative Table 1 run weights for the cluster pick. Built once
/// per campaign (fresh or resumed) and shared read-only by workers.
pub(crate) struct CampaignWorld {
    worlds: Vec<WirelessWorld>,
    /// `cum_runs[i]` = total Table 1 runs in clusters `0..=i`.
    cum_runs: Vec<u64>,
    total_runs: u64,
}

impl CampaignWorld {
    pub(crate) fn build() -> CampaignWorld {
        let clusters = paper_clusters();
        let worlds: Vec<WirelessWorld> = clusters
            .iter()
            .map(|p| {
                WirelessWorld::with_target(
                    p.wifi_median_bps,
                    combined_target_adjustment(p.lte_win_frac),
                )
            })
            .collect();
        let mut total_runs = 0u64;
        let cum_runs: Vec<u64> = clusters
            .iter()
            .map(|c| {
                total_runs += c.runs as u64;
                total_runs
            })
            .collect();
        CampaignWorld {
            worlds,
            cum_runs,
            total_runs,
        }
    }
}

/// Compute one shard's summary. A pure function of `(cfg, shard)` —
/// the per-user RNG is order-free — which is why a journaled shard can
/// be skipped on resume and the fold stays byte-identical.
pub(crate) fn run_shard(
    cfg: &CampaignConfig,
    world: &CampaignWorld,
    shard: u64,
    arena: &mut SimArena,
) -> ShardSummary {
    let (lo, hi) = cfg.shard_bounds(shard);
    let mut summary = ShardSummary::new();
    for user in lo..hi {
        measure_user(
            cfg,
            &world.worlds,
            &world.cum_runs,
            world.total_runs,
            user,
            arena,
            &mut summary,
        );
    }
    summary
}

/// Run a campaign. Shards are fanned out by [`fan_out`], whose work
/// stealing keeps a straggler shard (one slow FullSim user) from idling
/// the rest of the pool. Each worker owns one [`SimArena`] (FullSim runs
/// re-arm it per transfer) and streams each shard into a
/// [`ShardSummary`], whose integer counts merge into the campaign's as
/// the shard finishes and whose float half folds in shard order, so the
/// result is byte-identical for every worker count and every steal
/// interleaving.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    run_campaign_with(cfg, |_, _, _| {})
}

/// [`run_campaign`] with a shard-completion observer, for hosts that
/// stream progress (the campaign server). `on_shard(done, total, users)`
/// is called after each shard completes, with the number of shards
/// finished so far, the total shard count, and the users measured so
/// far. Calls come from worker threads in completion order (not shard
/// order) — observation is inherently racy and **must not** influence
/// results; the folded summary stays byte-identical to an unobserved
/// run.
pub fn run_campaign_with(
    cfg: &CampaignConfig,
    on_shard: impl Fn(u64, u64, u64) + Sync,
) -> CampaignSummary {
    run_engine(cfg, None, on_shard)
        .expect("only a journal append can fail, and there is no journal")
        .summary
}

/// A campaign completed through the journal: the summary plus resume
/// provenance for operator reporting (how much prior progress was
/// reused, how many torn-tail bytes were dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct ResumedCampaign {
    /// The campaign result — byte-identical to [`run_campaign`] on the
    /// same config, however many times the run was killed and resumed.
    pub summary: CampaignSummary,
    /// Shards recovered from the journal instead of recomputed.
    pub recovered_shards: u64,
    /// Total shards in the partition.
    pub total_shards: u64,
    /// Torn-tail bytes truncated from the journal on open.
    pub dropped_bytes: u64,
}

/// [`run_campaign`] with crash-consistent checkpointing: completed
/// shard summaries recovered from the journal at `path` are reused
/// verbatim, only the residual shards are fanned out (so work stealing
/// still balances the tail), and each newly completed shard is appended
/// to the journal and fsynced before it counts as done. The in-order
/// fold is unchanged, so the result is byte-identical to an
/// uninterrupted [`run_campaign`] at any worker count and any kill
/// point.
pub fn run_campaign_resumable(
    cfg: &CampaignConfig,
    path: &std::path::Path,
) -> Result<ResumedCampaign, ResumeError> {
    run_campaign_resumable_with(cfg, path, |_, _, _| {})
}

/// [`run_campaign_resumable`] with the shard-completion observer of
/// [`run_campaign_with`]. Recovered shards are reported as already done
/// in the observer's `done` count before any new work is observed.
pub fn run_campaign_resumable_with(
    cfg: &CampaignConfig,
    path: &std::path::Path,
    on_shard: impl Fn(u64, u64, u64) + Sync,
) -> Result<ResumedCampaign, ResumeError> {
    run_engine(cfg, Some(Checkpoint::open(path, cfg)?), on_shard)
}

/// The one campaign engine behind all four entry points. An unjournaled
/// campaign is a resume with nothing recovered and nowhere to append:
/// the residual list is then every shard.
///
/// What it holds does not grow with the shard count but by one
/// [`FloatTail`] per shard: the integer half of every shard merges into
/// one shared summary as the shard finishes, and only the float tails
/// are kept, to fold in shard order at the end. A resume starts from
/// what the journal scan left in its [`Recovery`]: the recovered
/// shards' counts, already merged into that summary, and their tails.
/// The scan decoded one record at a time, so a resume holds no more
/// than a fresh run does.
fn run_engine(
    cfg: &CampaignConfig,
    journal: Option<(Checkpoint, Recovery)>,
    on_shard: impl Fn(u64, u64, u64) + Sync,
) -> Result<ResumedCampaign, ResumeError> {
    const POISONED: &str = "a campaign worker panicked holding this lock";
    let num_shards = cfg.num_shards();
    let (checkpoint, recovery) = match journal {
        Some((checkpoint, recovery)) => (Some(Mutex::new(checkpoint)), recovery),
        None => (None, Recovery::fresh()),
    };
    let Recovery {
        counts,
        tails: recovered,
        recovered_slots,
        recovered_users,
        dropped_bytes,
        ..
    } = recovery;
    let world = CampaignWorld::build();
    let residual: Vec<u64> = (0..num_shards)
        .filter(|s| recovered.binary_search_by_key(s, |r| r.0).is_err())
        .collect();
    let counts = Mutex::new(counts);
    // First journal-append failure; workers skip their remaining shards
    // once one is recorded (the journal is shared, so a failed append
    // poisons the run).
    let first_err: Mutex<Option<ResumeError>> = Mutex::new(None);
    let done_shards = AtomicU64::new(recovered_slots);
    let users_done = AtomicU64::new(recovered_users);
    // A job returns its shard's float tail boxed: `fan_out` keeps a slot
    // per shard and each worker a list of the shards it finished, and a
    // pointer there costs 8 bytes where the tail would cost 144.
    let computed = fan_out(
        residual.len(),
        cfg.resolved_workers(),
        SimArena::new,
        |arena, i| {
            if first_err.lock().expect(POISONED).is_some() {
                return None;
            }
            let shard = residual[i];
            let (lo, hi) = cfg.shard_bounds(shard);
            let summary = run_shard(cfg, &world, shard, arena);
            if let Some(checkpoint) = &checkpoint {
                // Durability point: the shard is on disk (fsynced)
                // before it is counted done — a kill after this line
                // never recomputes the shard.
                if let Err(e) = checkpoint
                    .lock()
                    .expect(POISONED)
                    .append_slot(shard, &summary)
                {
                    first_err.lock().expect(POISONED).get_or_insert(e);
                    return None;
                }
            }
            counts.lock().expect(POISONED).merge_counts(&summary);
            let done = done_shards.fetch_add(1, Ordering::SeqCst) + 1;
            let users = users_done.fetch_add(hi - lo, Ordering::SeqCst) + (hi - lo);
            on_shard(done, num_shards, users);
            Some(Box::new(summary.float_tail()))
        },
    );
    if let Some(e) = first_err.into_inner().expect(POISONED) {
        return Err(e);
    }

    // The float fold, in shard order: walk the recovered and the
    // computed tails (each already sorted by shard) as one sequence.
    let mut stats = counts.into_inner().expect(POISONED);
    let mut recovered = recovered.into_iter().peekable();
    let mut computed = computed.into_iter().flatten();
    for shard in 0..num_shards {
        let tail = match recovered.next_if(|r| r.0 == shard) {
            Some((_, tail)) => tail,
            None => *computed.next().expect("every shard recovered or computed"),
        };
        stats.merge_floats(&tail);
    }
    Ok(ResumedCampaign {
        summary: CampaignSummary {
            users: cfg.users,
            seed: cfg.seed,
            shards: num_shards,
            stats,
        },
        recovered_shards: recovered_slots,
        total_shards: num_shards,
        dropped_bytes,
    })
}

/// Do two mean accumulators agree up to float-regrouping noise? Counts
/// must match exactly; sums may differ in the last few ulps because a
/// monolithic accumulation and a fold of shard partial-sums group the
/// additions differently.
fn accs_agree(a: &MeanAcc, b: &MeanAcc) -> bool {
    if a.count() != b.count() {
        return false;
    }
    if a.is_empty() {
        return true;
    }
    let rel = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    rel(a.mean(), b.mean()) && rel(a.std_dev(), b.std_dev())
}

/// Verify two campaigns over the same population agree — typically one
/// sharded and one monolithic (`shard_users = users`, `workers = 1`).
/// Count-based summaries (win tallies, sketches, histograms) must match
/// **exactly**: their merge algebra is integer addition. The float mean
/// accumulators must match up to regrouping noise (see `accs_agree`).
/// Returns a named first-divergence for forensics.
pub fn merge_agreement(a: &CampaignSummary, b: &CampaignSummary) -> Result<(), String> {
    if a.users != b.users {
        return Err(format!("user counts differ: {} vs {}", a.users, b.users));
    }
    let pairs: [(&str, bool); 9] = [
        ("lte_wins", a.stats.lte_wins == b.stats.lte_wins),
        ("users", a.stats.users == b.stats.users),
        ("wifi_down sketch", a.stats.wifi_down == b.stats.wifi_down),
        ("lte_down sketch", a.stats.lte_down == b.stats.lte_down),
        (
            "combined_diff sketch",
            a.stats.combined_diff == b.stats.combined_diff,
        ),
        (
            "ping_diff histogram",
            a.stats.ping_diff_us == b.stats.ping_diff_us,
        ),
        ("cluster tallies", a.stats.clusters == b.stats.clusters),
        (
            "throughput accumulators",
            accs_agree(&a.stats.wifi_down_acc, &b.stats.wifi_down_acc)
                && accs_agree(&a.stats.lte_down_acc, &b.stats.lte_down_acc),
        ),
        (
            "difference accumulators",
            accs_agree(&a.stats.diff_acc, &b.stats.diff_acc)
                && accs_agree(&a.stats.ping_diff_acc, &b.stats.ping_diff_acc),
        ),
    ];
    for (what, ok) in pairs {
        if !ok {
            return Err(format!("campaign summaries diverge in {what}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_invariance_analytic() {
        let mut one = CampaignConfig::new(3_000, 42, RunMode::Analytic);
        one.workers = 1;
        one.shard_users = 256;
        let mut eight = one.clone();
        eight.workers = 8;
        let a = run_campaign(&one);
        let b = run_campaign(&eight);
        assert_eq!(a, b, "worker count changed campaign output");
    }

    #[test]
    fn sharded_equals_monolithic() {
        let sharded = CampaignConfig::new(2_000, 7, RunMode::Analytic);
        let mut mono = sharded.clone();
        mono.workers = 1;
        mono.shard_users = 2_000;
        let a = run_campaign(&sharded);
        let b = run_campaign(&mono);
        assert_eq!(a.shards, 4);
        assert_eq!(b.shards, 1);
        merge_agreement(&a, &b).expect("sharded vs monolithic");
    }

    #[test]
    fn population_win_rate_matches_table1_mixture() {
        let cfg = CampaignConfig::new(20_000, 11, RunMode::Analytic);
        let s = run_campaign(&cfg);
        // The Table 1 run-count-weighted LTE-win rate is ≈ 0.33; the
        // population draw plus calibration noise stays within a few
        // points of it.
        let frac = s.stats.lte_win_fraction();
        assert!((0.25..0.42).contains(&frac), "win rate {frac}");
        // Every cluster received users, roughly in proportion: Boston
        // (884/2104 of the table) must dominate.
        let boston = s.stats.clusters[0].runs as f64 / s.users as f64;
        assert!((boston - 884.0 / 2104.0).abs() < 0.02, "boston {boston}");
        assert!(s.stats.clusters.iter().all(|c| c.runs > 0));
        // Streaming summaries saw every user.
        assert_eq!(s.stats.wifi_down.count(), s.users);
        assert_eq!(s.stats.ping_diff_us.total(), s.users);
        assert_eq!(s.stats.diff_acc.count(), s.users);
        // The CI shrinks like 1/√n: at 20k users the band is far
        // narrower than the spread of the metric itself.
        let (lo, hi) = s.stats.diff_acc.ci95();
        assert!(lo < hi);
        assert!(hi - lo < s.stats.diff_acc.std_dev(), "band {lo}..{hi}");
    }

    #[test]
    fn fullsim_campaign_worker_invariant() {
        // Small FullSim population: exercises the per-worker arenas and
        // pins that arena reuse keeps worker-count invariance.
        let mut one = CampaignConfig::new(6, 3, RunMode::FullSim);
        one.workers = 1;
        one.shard_users = 2;
        let mut three = one.clone();
        three.workers = 3;
        let a = run_campaign(&one);
        let b = run_campaign(&three);
        merge_agreement(&a, &b).expect("fullsim worker invariance");
        assert_eq!(a.stats.users, 6);
        assert!(a.stats.wifi_down_acc.mean() > 0.0);
    }

    #[test]
    fn work_stealing_is_byte_identical_across_jobs_and_repeats() {
        // Tiny shards (many more than workers) so the steal path runs
        // hot: workers finish their initial chunks at different times
        // and repartition the tail among themselves. The slot fold must
        // erase every trace of who ran what: 1 worker vs 8 workers vs a
        // repeated 8-worker run all produce the same summary, exactly.
        let mut one = CampaignConfig::new(2_000, 99, RunMode::Analytic);
        one.workers = 1;
        one.shard_users = 16;
        let mut eight = one.clone();
        eight.workers = 8;
        let a = run_campaign(&one);
        let b = run_campaign(&eight);
        let c = run_campaign(&eight);
        assert_eq!(a, b, "steal scheduling changed campaign output");
        assert_eq!(b, c, "repeated stealing run diverged");
    }

    #[test]
    fn observed_campaign_matches_unobserved_and_sees_every_shard() {
        let mut cfg = CampaignConfig::new(1_000, 5, RunMode::Analytic);
        cfg.workers = 4;
        cfg.shard_users = 128;
        let calls = Mutex::new(Vec::new());
        let observed = run_campaign_with(&cfg, |done, total, users| {
            calls.lock().unwrap().push((done, total, users));
        });
        let plain = run_campaign(&cfg);
        assert_eq!(observed, plain, "observer changed campaign output");
        let calls = calls.into_inner().unwrap();
        assert_eq!(calls.len(), observed.shards as usize);
        assert!(calls.iter().all(|&(_, total, _)| total == observed.shards));
        assert_eq!(calls.iter().map(|c| c.2).max(), Some(cfg.users));
        // Completion counters form a permutation of 1..=shards: every
        // shard reported exactly once.
        let mut dones: Vec<u64> = calls.iter().map(|c| c.0).collect();
        dones.sort_unstable();
        assert_eq!(dones, (1..=observed.shards).collect::<Vec<u64>>());
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let p =
            std::env::temp_dir().join(format!("mpwifi_campaign_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn resumable_fresh_run_equals_plain_run() {
        let mut cfg = CampaignConfig::new(2_000, 42, RunMode::Analytic);
        cfg.workers = 4;
        cfg.shard_users = 128;
        let path = tmp("fresh");
        let resumed = run_campaign_resumable(&cfg, &path).expect("resumable");
        assert_eq!(resumed.recovered_shards, 0);
        assert_eq!(resumed.total_shards, cfg.num_shards());
        assert_eq!(
            resumed.summary,
            run_campaign(&cfg),
            "journaling changed output"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_after_torn_kill_is_byte_identical_at_any_worker_count() {
        let mut cfg = CampaignConfig::new(2_000, 7, RunMode::Analytic);
        cfg.workers = 1;
        cfg.shard_users = 128;
        let baseline = run_campaign(&cfg);
        let path = tmp("torn_resume");
        // Complete once to get a full journal, then simulate a kill by
        // truncating to an arbitrary byte offset (mid-frame): the resume
        // must recompute exactly the lost suffix and match the baseline.
        run_campaign_resumable(&cfg, &path).expect("first run");
        let full = std::fs::read(&path).unwrap();
        for (workers, cut_frac) in [(1usize, 0.35f64), (8, 0.62), (8, 0.981)] {
            let cut = (full.len() as f64 * cut_frac) as usize;
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut wcfg = cfg.clone();
            wcfg.workers = workers;
            let resumed = run_campaign_resumable(&wcfg, &path).expect("resume");
            assert!(
                resumed.recovered_shards < resumed.total_shards,
                "truncation at {cut} left nothing to recompute"
            );
            assert_eq!(
                resumed.summary, baseline,
                "resume at workers={workers} cut={cut} diverged"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn completed_journal_resumes_without_recomputation() {
        let mut cfg = CampaignConfig::new(1_000, 3, RunMode::Analytic);
        cfg.workers = 2;
        cfg.shard_users = 128;
        let path = tmp("complete");
        let first = run_campaign_resumable(&cfg, &path).expect("run");
        let again = run_campaign_resumable(&cfg, &path).expect("resume of complete");
        assert_eq!(again.recovered_shards, again.total_shards);
        assert_eq!(again.summary, first.summary);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resumable_observer_reports_recovered_progress() {
        let mut cfg = CampaignConfig::new(1_000, 9, RunMode::Analytic);
        cfg.workers = 2;
        cfg.shard_users = 128;
        let path = tmp("observer");
        run_campaign_resumable(&cfg, &path).expect("first run");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let calls = Mutex::new(Vec::new());
        let resumed = run_campaign_resumable_with(&cfg, &path, |done, total, users| {
            calls.lock().unwrap().push((done, total, users));
        })
        .expect("resume");
        let calls = calls.into_inner().unwrap();
        // Only residual shards are observed, and the done counter starts
        // past the recovered prefix.
        assert_eq!(
            calls.len() as u64,
            resumed.total_shards - resumed.recovered_shards
        );
        assert!(calls.iter().all(|&(done, total, _)| {
            done > resumed.recovered_shards && total == resumed.total_shards
        }));
        assert_eq!(calls.iter().map(|c| c.2).max(), Some(cfg.users));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mix_is_order_free_and_spreads() {
        // Same (seed, user) always agrees; nearby users decorrelate.
        assert_eq!(mix(1, 2), mix(1, 2));
        let a = mix(9, 0);
        let b = mix(9, 1);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8, "weak diffusion: {a:x} vs {b:x}");
    }
}
