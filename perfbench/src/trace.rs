//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span has a name, the job or request it serves, start and end, and its
//! parent. Spans are kept in memory and written out as JSON lines when the
//! run ends. A layer's self time is its span's duration minus the time its
//! child spans cover. A disabled tracer records nothing, so an untraced pass
//! runs the same calls with only a branch per call site added.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `rawcc.schedule`.
    pub name: &'static str,
    /// Job or request id the call serves.
    pub id: u32,
    /// Pass the span belongs to (see [`Tracer::begin_pass`]).
    pub pass: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or `ROOT`.
    pub parent: u32,
}

/// Handle returned by [`Tracer::enter`].
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(u32);

/// Records spans and per-pass work counts, or nothing when disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
    /// (pass, counter) -> summed count.
    counts: BTreeMap<(u32, &'static str), f64>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attributes later spans and counts to pass `pass`.
    pub fn begin_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens a span.
    pub fn enter(&mut self, name: &'static str, id: u32) -> Open {
        if !self.enabled {
            return Open(ROOT);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            id,
            pass: self.pass,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(ROOT),
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes a span opened by [`enter`](Self::enter); spans close in
    /// reverse order of opening.
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Adds `value` to the work counter `name` of the current pass.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry((self.pass, name)).or_default() += value;
        }
    }

    /// Keeps the larger of `value` and the current pass's `name`.
    pub fn count_max(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            let slot = self.counts.entry((self.pass, name)).or_default();
            *slot = slot.max(value);
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds of every span: its duration minus the
    /// duration of its direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per pass, the summed self time in milliseconds of each span name.
    pub fn self_ms_by_pass(&self) -> BTreeMap<&'static str, BTreeMap<u32, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_default().entry(s.pass).or_default() += ns as f64 / 1e6;
        }
        out
    }

    /// Per pass, the summed duration in milliseconds of spans named `name`.
    pub fn total_ms_by_pass(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.pass).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        out
    }

    /// Per pass, the value of counter `name`.
    pub fn counts_by_pass(&self, name: &str) -> BTreeMap<u32, f64> {
        self.counts
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(&(pass, _), &v)| (pass, v))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"pass\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent}}}",
                s.name, s.id, s.pass, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.enter("outer", 0);
        let inner = t.enter("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let own = t.self_times();
        let total = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert_eq!(own[0] + own[1], total);
        assert!(own[1] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.enter("x", 1);
        t.count("n", 3.0);
        t.exit(s);
        assert!(t.spans().is_empty());
        assert!(t.counts_by_pass("n").is_empty());
    }
}
