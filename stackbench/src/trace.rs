//! Outside-in spans: one around every public call the driver makes.
//!
//! Spans are kept in memory while the benchmark runs and written as
//! jsonl when it ends. A span's self time is its duration minus the
//! part of that interval its children cover. Nothing here touches the
//! program: in-program spans are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Spans of one op share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    /// Round-local op index.
    pub op: u32,
    /// Round the op ran in.
    pub round: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. With `on == false` every call is a branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    round: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            round: 0,
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Spans recorded from here on belong to round `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            op: op as u32,
            round: self.round,
            parent,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
        Some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one json object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"round\": {}, \"op\": {}, \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.round, s.op, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, ns: duration minus the union of its
/// children's intervals (clipped to the span). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name `min over rounds` of the summed duration (or self time) of
/// the spans with that name — the noise-floor cost of a span kind over
/// one pass of the workload.
pub fn floor_by_name(spans: &[Span], values: &[u64], name: &str) -> u64 {
    let rounds = spans.iter().map(|s| s.round).max().map_or(0, |r| r + 1);
    (0..rounds)
        .map(|r| {
            spans
                .iter()
                .zip(values)
                .filter(|(s, _)| s.round == r && s.name == name)
                .map(|(_, v)| *v)
                .sum::<u64>()
        })
        .filter(|&v| v > 0)
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "x",
            op: 0,
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),  // overlaps span 1: union is 10..60
            span(3, Some(0), 90, 120), // clipped to the parent: 90..100
            span(4, Some(1), 10, 40),
        ];
        assert_eq!(self_times(&spans), vec![40, 0, 30, 30, 30]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let now = Instant::now();
        assert_eq!(t.record("a", 0, None, now, now), None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_by_parent_id_and_carry_their_round() {
        let mut t = Tracer::new(true);
        t.set_round(2);
        let a = Instant::now();
        let b = Instant::now();
        let root = t.record("req", 7, None, a, b);
        let kid = t.record("admit", 7, root, a, b);
        assert_eq!((root, kid), (Some(0), Some(1)));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].round, 2);
        assert_eq!(t.spans()[1].op, 7);
    }

    #[test]
    fn floor_by_name_is_the_cheapest_round() {
        let mut spans = Vec::new();
        for (round, dur) in [(0u32, 50u64), (1, 30), (2, 40)] {
            spans.push(Span {
                id: spans.len() as u32,
                name: "a",
                op: 0,
                round,
                parent: None,
                start_ns: 0,
                end_ns: dur,
            });
        }
        let durs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        assert_eq!(floor_by_name(&spans, &durs, "a"), 30);
        assert_eq!(floor_by_name(&spans, &durs, "b"), 0);
    }
}
