//! App traffic patterns (Figure 17).
//!
//! Each pattern is a set of flows; each flow is a TCP connection that
//! performs one or more request/response exchanges at offsets from its
//! start. The six patterns are synthesized to match the figure:
//!
//! * **CNN launch/click, IMDB launch, Dropbox launch** — *short-flow
//!   dominated*: 6–25 connections, each moving a few kB to ~100 kB, some
//!   long-lived with periodic tiny beacons;
//! * **IMDB click** — 35 connections, one of which (the movie trailer,
//!   connection 30 in the paper) downloads ~12 MB in a single request;
//! * **Dropbox click** — 12 connections, one of which (the PDF,
//!   connection 8) downloads ~4 MB.

use mpwifi_simcore::{DetRng, Dur};
use serde::{Deserialize, Serialize};

/// One request/response exchange on a flow.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Exchange {
    /// When the client issues the request, relative to the flow start
    /// (and never before the previous exchange finished).
    pub offset: Dur,
    /// Request size (headers + body), bytes.
    pub request_bytes: u64,
    /// Response size, bytes.
    pub response_bytes: u64,
    /// Server think time before the response.
    pub server_delay: Dur,
}

/// One TCP connection in an app trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowPattern {
    /// Flow id (the y-axis of Figure 17).
    pub id: usize,
    /// Connection start, relative to the interaction start.
    pub start: Dur,
    /// Sequential exchanges on this connection.
    pub exchanges: Vec<Exchange>,
}

impl FlowPattern {
    /// Total bytes moved (both directions).
    pub fn total_bytes(&self) -> u64 {
        self.exchanges
            .iter()
            .map(|e| e.request_bytes + e.response_bytes)
            .sum()
    }
}

/// Launch vs user-interaction trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternKind {
    /// App cold start.
    Launch,
    /// User tapped something.
    Click,
}

/// The paper's two app categories (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppClass {
    /// Many connections, small transfers each.
    ShortFlowDominated,
    /// One or more large transfers dominate.
    LongFlowDominated,
}

/// Rate classes of Figure 17's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RateClass {
    /// 0–10 kbit/s.
    UpTo10k,
    /// 10–100 kbit/s.
    UpTo100k,
    /// 100–500 kbit/s.
    UpTo500k,
    /// 500–1000 kbit/s.
    UpTo1m,
    /// Over 1 Mbit/s.
    Over1m,
}

impl RateClass {
    /// Classify an average rate in bits/s.
    pub fn of_bps(bps: f64) -> RateClass {
        if bps <= 10_000.0 {
            RateClass::UpTo10k
        } else if bps <= 100_000.0 {
            RateClass::UpTo100k
        } else if bps <= 500_000.0 {
            RateClass::UpTo500k
        } else if bps <= 1_000_000.0 {
            RateClass::UpTo1m
        } else {
            RateClass::Over1m
        }
    }

    /// Figure 17 legend label.
    pub fn label(&self) -> &'static str {
        match self {
            RateClass::UpTo10k => "0-10 kbps",
            RateClass::UpTo100k => "10-100 kbps",
            RateClass::UpTo500k => "100-500 kbps",
            RateClass::UpTo1m => "500-1000 kbps",
            RateClass::Over1m => "> 1000 kbps",
        }
    }
}

/// One recorded app interaction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppPattern {
    /// App name ("CNN", "IMDB", "Dropbox").
    pub app: &'static str,
    /// Launch or click.
    pub kind: PatternKind,
    /// The flows.
    pub flows: Vec<FlowPattern>,
}

impl AppPattern {
    /// Short- or long-flow dominated (the paper's threshold: a flow
    /// moving over 1 MB dominates the interaction).
    pub fn class(&self) -> AppClass {
        if self.flows.iter().any(|f| f.total_bytes() > 1_000_000) {
            AppClass::LongFlowDominated
        } else {
            AppClass::ShortFlowDominated
        }
    }

    /// Total bytes over all flows.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.total_bytes()).sum()
    }

    /// Display name like "CNN launch".
    pub fn name(&self) -> String {
        format!(
            "{} {}",
            self.app,
            match self.kind {
                PatternKind::Launch => "launch",
                PatternKind::Click => "click",
            }
        )
    }
}

fn ms(v: u64) -> Dur {
    Dur::from_millis(v)
}

/// A typical HTTP GET.
fn get(offset: Dur, response_bytes: u64, server_delay_ms: u64) -> Exchange {
    Exchange {
        offset,
        request_bytes: 420,
        response_bytes,
        server_delay: ms(server_delay_ms),
    }
}

/// A burst of small-content connections starting near `t0`.
fn asset_burst(
    rng: &mut DetRng,
    first_id: usize,
    count: usize,
    t0: Dur,
    min_bytes: u64,
    max_bytes: u64,
) -> Vec<FlowPattern> {
    (0..count)
        .map(|i| {
            let start = t0 + ms(rng.uniform_u64(0, 1200));
            let bytes = rng.uniform_u64(min_bytes, max_bytes);
            let mut exchanges = vec![get(Dur::ZERO, bytes, rng.uniform_u64(20, 120))];
            // Some connections fetch a couple of extra assets.
            if rng.chance(0.4) {
                exchanges.push(get(
                    ms(rng.uniform_u64(200, 900)),
                    rng.uniform_u64(min_bytes / 2 + 1, max_bytes / 2 + 2),
                    rng.uniform_u64(20, 120),
                ));
            }
            FlowPattern {
                id: first_id + i,
                start,
                exchanges,
            }
        })
        .collect()
}

/// A connection with a few spaced-out tiny beacons (analytics). The
/// spacing is in milliseconds; the paper's response-time metric ends at
/// the last connection's end, so beacons extend an interaction by a
/// couple of seconds, not tens.
fn beacon_flow(id: usize, start: Dur, period_ms: u64, count: usize) -> FlowPattern {
    FlowPattern {
        id,
        start,
        exchanges: (0..count)
            .map(|k| get(ms(period_ms * k as u64), 1_200, 30))
            .collect(),
    }
}

/// CNN launch (Figure 17a): ~20 connections, all small — the paper's
/// canonical short-flow-dominated pattern.
pub fn cnn_launch(seed: u64) -> AppPattern {
    let mut rng = DetRng::seed_from_u64(seed ^ 0xC11);
    let mut flows = asset_burst(&mut rng, 1, 14, Dur::ZERO, 8_000, 100_000);
    flows.extend(asset_burst(&mut rng, 15, 4, ms(900), 4_000, 35_000));
    flows.push(beacon_flow(19, ms(400), 900, 3));
    flows.push(beacon_flow(20, ms(800), 1_100, 2));
    AppPattern {
        app: "CNN",
        kind: PatternKind::Launch,
        flows,
    }
}

/// CNN click (Figure 17b): a fresh burst of ~25 small connections.
pub fn cnn_click(seed: u64) -> AppPattern {
    let mut rng = DetRng::seed_from_u64(seed ^ 0xC12);
    let mut flows = asset_burst(&mut rng, 1, 18, Dur::ZERO, 8_000, 110_000);
    flows.extend(asset_burst(&mut rng, 19, 5, ms(800), 4_000, 40_000));
    flows.push(beacon_flow(24, ms(300), 800, 3));
    flows.push(beacon_flow(25, ms(700), 1_000, 2));
    AppPattern {
        app: "CNN",
        kind: PatternKind::Click,
        flows,
    }
}

/// IMDB launch (Figure 17c): 14 small connections.
pub fn imdb_launch(seed: u64) -> AppPattern {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x1DB1);
    let mut flows = asset_burst(&mut rng, 1, 12, Dur::ZERO, 8_000, 120_000);
    flows.push(beacon_flow(13, ms(500), 1_000, 3));
    flows.push(beacon_flow(14, ms(900), 1_200, 2));
    AppPattern {
        app: "IMDB",
        kind: PatternKind::Launch,
        flows,
    }
}

/// IMDB click (Figure 17d): the user plays a movie trailer — connection
/// 30 downloads the whole trailer in one request (long-flow dominated).
pub fn imdb_click(seed: u64) -> AppPattern {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x1DB2);
    let mut flows = asset_burst(&mut rng, 1, 26, Dur::ZERO, 5_000, 90_000);
    flows.extend(asset_burst(&mut rng, 27, 3, ms(1_200), 2_000, 30_000));
    // The trailer: one 12 MB response.
    flows.push(FlowPattern {
        id: 30,
        start: ms(1_500),
        exchanges: vec![get(Dur::ZERO, 12_000_000, 150)],
    });
    flows.extend(asset_burst(&mut rng, 31, 5, ms(2_500), 2_000, 25_000));
    AppPattern {
        app: "IMDB",
        kind: PatternKind::Click,
        flows,
    }
}

/// Dropbox launch (Figure 17e): 6 small connections.
pub fn dropbox_launch(seed: u64) -> AppPattern {
    let mut rng = DetRng::seed_from_u64(seed ^ 0xD0B1);
    let mut flows = asset_burst(&mut rng, 1, 5, Dur::ZERO, 6_000, 80_000);
    flows.push(beacon_flow(6, ms(400), 1_000, 3));
    AppPattern {
        app: "Dropbox",
        kind: PatternKind::Launch,
        flows,
    }
}

/// Dropbox click (Figure 17f): the user opens a PDF — connection 8
/// downloads the whole file (long-flow dominated).
pub fn dropbox_click(seed: u64) -> AppPattern {
    let mut rng = DetRng::seed_from_u64(seed ^ 0xD0B2);
    let mut flows = asset_burst(&mut rng, 1, 7, Dur::ZERO, 4_000, 50_000);
    flows.push(FlowPattern {
        id: 8,
        start: ms(1_000),
        exchanges: vec![get(Dur::ZERO, 4_000_000, 120)],
    });
    flows.extend(asset_burst(&mut rng, 9, 4, ms(1_800), 2_000, 20_000));
    AppPattern {
        app: "Dropbox",
        kind: PatternKind::Click,
        flows,
    }
}

/// Dropbox photo upload (an *uplink*-dominated interaction — not in
/// Figure 17, provided as an extension: camera uploads were Dropbox's
/// flagship feature in 2014 and exercise the uplink direction the way
/// the click pattern exercises the downlink).
pub fn dropbox_upload(seed: u64) -> AppPattern {
    let mut rng = DetRng::seed_from_u64(seed ^ 0xD0B3);
    let mut flows = asset_burst(&mut rng, 1, 3, Dur::ZERO, 2_000, 20_000);
    // The photo: a 2.5 MB request with a tiny 200-byte OK response.
    flows.push(FlowPattern {
        id: 4,
        start: ms(800),
        exchanges: vec![Exchange {
            offset: Dur::ZERO,
            request_bytes: 2_500_000,
            response_bytes: 200,
            server_delay: ms(80),
        }],
    });
    flows.push(beacon_flow(5, ms(400), 1_000, 2));
    AppPattern {
        app: "Dropbox",
        kind: PatternKind::Click,
        flows,
    }
}

impl AppPattern {
    /// Serialize to the plain-text record format (the Mahimahi-recording
    /// analogue — one file per interaction):
    ///
    /// ```text
    /// app CNN launch
    /// flow 1 230          # id, start_ms
    /// ex 0 420 52341 80   # offset_ms, request_bytes, response_bytes, server_delay_ms
    /// ```
    pub fn to_record_text(&self) -> String {
        let mut out = format!(
            "app {} {}\n",
            self.app,
            match self.kind {
                PatternKind::Launch => "launch",
                PatternKind::Click => "click",
            }
        );
        for f in &self.flows {
            out.push_str(&format!("flow {} {}\n", f.id, f.start.as_millis()));
            for e in &f.exchanges {
                out.push_str(&format!(
                    "ex {} {} {} {}\n",
                    e.offset.as_millis(),
                    e.request_bytes,
                    e.response_bytes,
                    e.server_delay.as_millis()
                ));
            }
        }
        out
    }

    /// Parse the record format written by [`AppPattern::to_record_text`].
    /// The app name is interned against the known apps (arbitrary names
    /// parse as "Custom").
    pub fn parse_record_text(text: &str) -> Result<AppPattern, String> {
        let mut app: Option<(&'static str, PatternKind)> = None;
        let mut flows: Vec<FlowPattern> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let err = |m: &str| format!("line {}: {m}", lineno + 1);
            match parts.next() {
                Some("app") => {
                    let name = parts.next().ok_or_else(|| err("missing app name"))?;
                    let kind = match parts.next() {
                        Some("launch") => PatternKind::Launch,
                        Some("click") => PatternKind::Click,
                        other => return Err(err(&format!("bad kind {other:?}"))),
                    };
                    let interned = match name {
                        "CNN" => "CNN",
                        "IMDB" => "IMDB",
                        "Dropbox" => "Dropbox",
                        _ => "Custom",
                    };
                    app = Some((interned, kind));
                }
                Some("flow") => {
                    let id = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("bad flow id"))?;
                    let start_ms: u64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("bad flow start"))?;
                    flows.push(FlowPattern {
                        id,
                        start: ms(start_ms),
                        exchanges: Vec::new(),
                    });
                }
                Some("ex") => {
                    let flow = flows.last_mut().ok_or_else(|| err("ex before flow"))?;
                    let nums: Vec<u64> = parts
                        .map(|v| v.parse::<u64>())
                        .collect::<Result<_, _>>()
                        .map_err(|e| err(&e.to_string()))?;
                    if nums.len() != 4 {
                        return Err(err("ex needs 4 fields"));
                    }
                    flow.exchanges.push(Exchange {
                        offset: ms(nums[0]),
                        request_bytes: nums[1],
                        response_bytes: nums[2],
                        server_delay: ms(nums[3]),
                    });
                }
                Some(other) => return Err(err(&format!("unknown directive {other}"))),
                None => unreachable!("empty line filtered"),
            }
        }
        let (app, kind) = app.ok_or("missing 'app' header")?;
        if flows.is_empty() {
            return Err("no flows".into());
        }
        if flows.iter().any(|f| f.exchanges.is_empty()) {
            return Err("flow without exchanges".into());
        }
        Ok(AppPattern { app, kind, flows })
    }
}

/// All six Figure 17 patterns.
pub fn all_patterns(seed: u64) -> Vec<AppPattern> {
    vec![
        cnn_launch(seed),
        cnn_click(seed),
        imdb_launch(seed),
        imdb_click(seed),
        dropbox_launch(seed),
        dropbox_click(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_patterns_match_figure17_structure() {
        let ps = all_patterns(1);
        assert_eq!(ps.len(), 6);
        let names: Vec<String> = ps.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "CNN launch",
                "CNN click",
                "IMDB launch",
                "IMDB click",
                "Dropbox launch",
                "Dropbox click"
            ]
        );
    }

    #[test]
    fn classification_matches_paper() {
        let ps = all_patterns(1);
        assert_eq!(ps[0].class(), AppClass::ShortFlowDominated, "CNN launch");
        assert_eq!(ps[1].class(), AppClass::ShortFlowDominated, "CNN click");
        assert_eq!(ps[2].class(), AppClass::ShortFlowDominated, "IMDB launch");
        assert_eq!(ps[3].class(), AppClass::LongFlowDominated, "IMDB click");
        assert_eq!(
            ps[4].class(),
            AppClass::ShortFlowDominated,
            "Dropbox launch"
        );
        assert_eq!(ps[5].class(), AppClass::LongFlowDominated, "Dropbox click");
    }

    #[test]
    fn flow_counts_match_figure() {
        let ps = all_patterns(1);
        assert_eq!(ps[0].flows.len(), 20);
        assert_eq!(ps[1].flows.len(), 25);
        assert_eq!(ps[2].flows.len(), 14);
        assert_eq!(ps[3].flows.len(), 35);
        assert_eq!(ps[4].flows.len(), 6);
        assert_eq!(ps[5].flows.len(), 12);
    }

    #[test]
    fn dominant_flows_have_dominant_ids() {
        let imdb = imdb_click(1);
        let trailer = imdb.flows.iter().find(|f| f.id == 30).unwrap();
        assert!(trailer.total_bytes() > 10_000_000);
        let dropbox = dropbox_click(1);
        let pdf = dropbox.flows.iter().find(|f| f.id == 8).unwrap();
        assert!(pdf.total_bytes() > 3_000_000);
    }

    #[test]
    fn short_flows_are_small() {
        for p in all_patterns(1) {
            for f in &p.flows {
                if p.class() == AppClass::ShortFlowDominated {
                    assert!(
                        f.total_bytes() < 500_000,
                        "{}: flow {} too big",
                        p.name(),
                        f.id
                    );
                }
            }
        }
    }

    #[test]
    fn beacons_are_long_lived_but_tiny() {
        let cnn = cnn_launch(1);
        let beacon = cnn.flows.iter().find(|f| f.id == 19).unwrap();
        assert!(beacon
            .exchanges
            .iter()
            .any(|e| e.offset >= Dur::from_millis(1_500)));
        assert!(beacon.total_bytes() < 10_000);
    }

    #[test]
    fn rate_class_boundaries() {
        assert_eq!(RateClass::of_bps(5_000.0), RateClass::UpTo10k);
        assert_eq!(RateClass::of_bps(50_000.0), RateClass::UpTo100k);
        assert_eq!(RateClass::of_bps(400_000.0), RateClass::UpTo500k);
        assert_eq!(RateClass::of_bps(800_000.0), RateClass::UpTo1m);
        assert_eq!(RateClass::of_bps(5_000_000.0), RateClass::Over1m);
        assert_eq!(RateClass::Over1m.label(), "> 1000 kbps");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = cnn_launch(7);
        let b = cnn_launch(7);
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.total_bytes(), y.total_bytes());
        }
        let c = cnn_launch(8);
        assert!(a
            .flows
            .iter()
            .zip(&c.flows)
            .any(|(x, y)| x.total_bytes() != y.total_bytes()));
    }

    #[test]
    fn dropbox_upload_is_uplink_dominated() {
        let p = dropbox_upload(1);
        assert_eq!(p.class(), AppClass::LongFlowDominated);
        let up: u64 = p
            .flows
            .iter()
            .flat_map(|f| &f.exchanges)
            .map(|e| e.request_bytes)
            .sum();
        let down: u64 = p
            .flows
            .iter()
            .flat_map(|f| &f.exchanges)
            .map(|e| e.response_bytes)
            .sum();
        assert!(up > down * 10, "uplink {up} must dwarf downlink {down}");
    }

    #[test]
    fn record_format_round_trips_every_pattern() {
        for p in all_patterns(9) {
            let text = p.to_record_text();
            let back = AppPattern::parse_record_text(&text).expect("parse");
            assert_eq!(back.app, p.app);
            assert_eq!(back.kind, p.kind);
            assert_eq!(back.flows.len(), p.flows.len());
            for (a, b) in p.flows.iter().zip(&back.flows) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.start.as_millis(), b.start.as_millis());
                assert_eq!(a.exchanges.len(), b.exchanges.len());
                for (x, y) in a.exchanges.iter().zip(&b.exchanges) {
                    assert_eq!(x.request_bytes, y.request_bytes);
                    assert_eq!(x.response_bytes, y.response_bytes);
                }
            }
            assert_eq!(back.class(), p.class());
        }
    }

    #[test]
    fn record_format_rejects_malformed_input() {
        assert!(AppPattern::parse_record_text("").is_err());
        assert!(AppPattern::parse_record_text("flow 1 0\nex 0 1 2 3").is_err());
        assert!(AppPattern::parse_record_text("app X launch\nex 0 1 2 3").is_err());
        assert!(AppPattern::parse_record_text("app X launch\nflow 1 0").is_err());
        assert!(AppPattern::parse_record_text("app X sideways\nflow 1 0\nex 0 1 2 3").is_err());
        assert!(AppPattern::parse_record_text("app X launch\nflow 1 0\nex 0 1 2").is_err());
        assert!(AppPattern::parse_record_text("bogus").is_err());
    }

    #[test]
    fn record_format_accepts_comments_and_custom_apps() {
        let text = "# recorded by hand\napp MyApp click\nflow 3 150\nex 0 400 9000 30 # GET /x\n";
        let p = AppPattern::parse_record_text(text).unwrap();
        assert_eq!(p.app, "Custom");
        assert_eq!(p.flows[0].id, 3);
        assert_eq!(p.flows[0].exchanges[0].response_bytes, 9000);
    }

    #[test]
    fn flow_ids_unique_and_ordered() {
        for p in all_patterns(3) {
            let mut ids: Vec<usize> = p.flows.iter().map(|f| f.id).collect();
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "{}: duplicate flow ids", p.name());
        }
    }
}
