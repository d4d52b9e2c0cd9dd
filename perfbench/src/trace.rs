//! A zero-dependency, in-memory span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (never from inside the program), kept in memory, and written out as JSON
//! lines when the run ends. Per-layer self times are computed from them: a
//! span's self time is its duration minus the part of its interval that its
//! children cover (children may overlap, e.g. the concurrent requests of one
//! batch, so the covered part is the union of their intervals).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the span belongs to, e.g. `core.search`.
    pub layer: &'static str,
    /// What the layer worked on, e.g. the program name (may be empty).
    pub item: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch (`start` while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by every span of one request (or suite iteration).
    pub request: u64,
}

/// The recorder. When disabled, every method is a no-op returning
/// placeholder ids, so untraced blocks pay only a branch.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with the given epoch; `enabled` starts it recording.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            enabled: false,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off (the traced run alternates blocks).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn offset(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span from two instants.
    pub fn record(
        &mut self,
        layer: &'static str,
        item: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start, end) = (self.offset(start), self.offset(end));
        self.spans.push(Span {
            layer,
            item,
            start,
            end,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span at `start`; [`Recorder::close`] sets its end.
    pub fn open(
        &mut self,
        layer: &'static str,
        item: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        self.record(layer, item, start, start, parent, request)
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end = self.offset(end);
            self.spans[id].end = end;
        }
    }

    /// Records a finished span from offsets already relative to the epoch.
    pub fn record_offsets(
        &mut self,
        layer: &'static str,
        item: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            layer,
            item,
            start,
            end,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (nanoseconds) of every span, indexed like [`Recorder::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                let duration = s.end.saturating_sub(s.start);
                duration.saturating_sub(covered(s.start, s.end, kids))
            })
            .collect()
    }

    /// Sum of self times per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer).or_insert(0) += t;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"item\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                s.layer, s.item, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the part of `[start, end)` covered by the union of `kids`.
fn covered(start: u64, end: u64, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in kids.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(Instant::now());
        r.set_enabled(true);
        let root = r.record_offsets("batch", "", 0, 100, None, 0);
        r.record_offsets("req", "", 10, 50, root, 1);
        r.record_offsets("req", "", 30, 70, root, 2);
        r.record_offsets("req", "", 90, 120, root, 3);
        let t = r.self_times();
        // Children cover [10,70) and [90,100): 70 of 100 ns.
        assert_eq!(t[0], 30);
        assert_eq!(t[1], 40);
        assert_eq!(r.self_time_by_layer()["req"], 40 + 40 + 30);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now());
        assert!(r.record_offsets("x", "", 0, 1, None, 0).is_none());
        assert!(r.spans().is_empty());
    }
}
