//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded from the benchmark's own files around calls into
//! each layer's public functions — nothing inside the program is
//! instrumented. Each span keeps its name, start, end, parent and request
//! id; the first [`SPAN_CAP`] spans are written out when the run ends,
//! and per-name totals cover every span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spans kept in memory (and written out) per run; totals count all.
pub const SPAN_CAP: usize = 200_000;

/// Directory (relative to the working directory) the span files go to.
pub const SPAN_DIR: &str = ".bench_spans";

/// The request a span belongs to: the sample index for solo runs, the
/// `(tick, session)` pair for fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Global sample index of a solo run.
    Sample(u64),
    /// Fleet tick and session id.
    Tick(u64, u64),
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id (unique per run).
    pub id: u32,
    /// Layer call or phase name.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The request this span served.
    pub request: Request,
}

/// Span recorder with per-name totals.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            next_id: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Reserve an id for a span recorded later (a parent whose children
    /// close first).
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Record a finished span under a reserved id; returns its duration in
    /// nanoseconds.
    pub fn record_as(
        &mut self,
        id: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: Request,
    ) -> u64 {
        let start_ns = ns_between(self.epoch, start);
        let end_ns = ns_between(self.epoch, end);
        let dur = end_ns.saturating_sub(start_ns);
        let total = self.totals.entry(name).or_insert((0, 0));
        total.0 += 1;
        total.1 += dur;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                request,
            });
        }
        dur
    }

    /// Record a finished span with a fresh id; returns its duration.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: Request,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, start, end, parent, request)
    }

    /// `(count, total ns)` of every span recorded under `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.totals.get(name).copied().unwrap_or((0, 0))
    }

    /// The spans kept in memory.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the kept spans as tab-separated text to
    /// `<dir>/<stem>.tsv`; returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.tsv"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let request = match s.request {
                Request::Sample(i) => format!("sample:{i}"),
                Request::Tick(t, id) => format!("tick:{t}/session:{id}"),
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}\t{request}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}

/// Nanoseconds from `a` to `b` (0 when `b` precedes `a`).
#[must_use]
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parents_and_totals() {
        let t0 = Instant::now();
        let mut tracer = Tracer::new(t0);
        let root = tracer.reserve();
        let c = t0 + Duration::from_nanos(100);
        let d = tracer.record(
            "child",
            c,
            c + Duration::from_nanos(50),
            Some(root),
            Request::Sample(3),
        );
        assert_eq!(d, 50);
        let r = tracer.record_as(
            root,
            "root",
            t0,
            t0 + Duration::from_nanos(400),
            None,
            Request::Sample(3),
        );
        assert_eq!(r, 400);
        assert_eq!(tracer.total("child"), (1, 50));
        assert_eq!(tracer.total("root"), (1, 400));
        assert_eq!(tracer.total("absent"), (0, 0));
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, Some(root));
        assert_eq!(spans[1].id, root);
        assert_eq!(spans[1].parent, None);
    }
}
