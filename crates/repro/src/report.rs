//! Experiment report structure: rows/series plus paper-vs-measured
//! checks, renderable as terminal text or Markdown (for EXPERIMENTS.md).

use mpwifi_simcore::RunMetrics;
use std::fmt::Write as _;

/// Execution scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast: analytic crowd model, fewer seeds.
    Quick,
    /// Full packet-level simulation everywhere.
    Full,
}

impl Scale {
    /// How the crowd dataset measures each transfer at this scale.
    pub fn run_mode(self) -> mpwifi_crowd::RunMode {
        match self {
            Scale::Quick => mpwifi_crowd::RunMode::Analytic,
            Scale::Full => mpwifi_crowd::RunMode::FullSim,
        }
    }
}

/// One paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct Claim {
    /// What is being compared.
    pub what: String,
    /// The paper's value (as printed there).
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Does the measured value preserve the paper's finding?
    pub holds: bool,
}

impl Claim {
    /// Build a claim.
    pub fn new(
        what: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        holds: bool,
    ) -> Claim {
        Claim {
            what: what.into(),
            paper: paper.into(),
            measured: measured.into(),
            holds,
        }
    }
}

/// One experiment's output.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id ("fig3").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Method note (what ran, at what scale).
    pub method: String,
    /// The regenerated rows/series, as labelled text blocks.
    pub blocks: Vec<String>,
    /// Paper-vs-measured checks.
    pub claims: Vec<Claim>,
    /// Simulator instrumentation for the run that produced this report
    /// (attached by the runner; `None` when the experiment function is
    /// called directly). Deterministic per `(id, scale, seed)`, so it
    /// is safe to render: serial and parallel runs print the same
    /// bytes.
    pub metrics: Option<RunMetrics>,
}

impl Report {
    /// Create an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        method: impl Into<String>,
    ) -> Report {
        Report {
            id: id.into(),
            title: title.into(),
            method: method.into(),
            blocks: Vec::new(),
            claims: Vec::new(),
            metrics: None,
        }
    }

    /// Add a data block.
    pub fn block(&mut self, b: impl Into<String>) -> &mut Self {
        self.blocks.push(b.into());
        self
    }

    /// Add a claim.
    pub fn claim(
        &mut self,
        what: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        holds: bool,
    ) -> &mut Self {
        self.claims.push(Claim::new(what, paper, measured, holds));
        self
    }

    /// Do all claims hold?
    pub fn all_hold(&self) -> bool {
        self.claims.iter().all(|c| c.holds)
    }

    /// Terminal rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== {} — {} ====", self.id, self.title);
        let _ = writeln!(out, "method: {}", self.method);
        for b in &self.blocks {
            let _ = writeln!(out, "\n{b}");
        }
        if !self.claims.is_empty() {
            let _ = writeln!(out, "\npaper vs measured:");
            for c in &self.claims {
                let _ = writeln!(
                    out,
                    "  [{}] {}: paper {} | measured {}",
                    if c.holds { "ok" } else { "!!" },
                    c.what,
                    c.paper,
                    c.measured
                );
            }
        }
        if let Some(m) = &self.metrics {
            let _ = writeln!(
                out,
                "\nrun metrics: {} events, {} frames, {} payload bytes, {} retransmits",
                m.events_popped, m.frames_forwarded, m.bytes_delivered, m.tcp_retransmits
            );
        }
        out
    }

    /// Markdown rendering for EXPERIMENTS.md.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "*Method:* {}\n", self.method);
        if !self.claims.is_empty() {
            let _ = writeln!(out, "| Check | Paper | Measured | Holds |");
            let _ = writeln!(out, "|---|---|---|---|");
            for c in &self.claims {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} |",
                    c.what,
                    c.paper,
                    c.measured,
                    if c.holds { "yes" } else { "**no**" }
                );
            }
            let _ = writeln!(out);
        }
        for b in &self.blocks {
            let _ = writeln!(out, "```text\n{b}\n```\n");
        }
        if let Some(m) = &self.metrics {
            let _ = writeln!(
                out,
                "*Run:* {} events, {} frames, {} payload bytes, {} retransmits\n",
                m.events_popped, m.frames_forwarded, m.bytes_delivered, m.tcp_retransmits
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_both_formats() {
        let mut r = Report::new("figX", "Test figure", "unit test");
        r.block("# data\n1 2");
        r.claim("something", "40%", "41%", true);
        r.claim("other", "10", "99", false);
        assert!(!r.all_hold());
        let text = r.render_text();
        assert!(text.contains("figX"));
        assert!(text.contains("[ok] something"));
        assert!(text.contains("[!!] other"));
        let md = r.render_markdown();
        assert!(md.contains("## figX"));
        assert!(md.contains("| something | 40% | 41% | yes |"));
        assert!(md.contains("**no**"));
    }
}
