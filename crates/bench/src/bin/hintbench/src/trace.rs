//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Nothing inside the program is instrumented: a span brackets one call
//! the benchmark makes (a batch into `Session::query_batch_merge`, one
//! request's encode, its socket write, the wait for its first reply
//! frame, ...). A span is identified by its name and request id, which
//! is unique within a run; its parent is named the same way. Spans are
//! kept in memory and written out when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one, as (name, request id).
    pub parent: Option<(&'static str, u64)>,
    /// Request (or batch, or setup repetition) id; spans of one request
    /// share it.
    pub req: u64,
    pub start: Instant,
    pub end: Instant,
}

/// A span recorder. A disabled recorder drops every span, so untraced
/// runs pay one branch per would-be span.
#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<(&'static str, u64)>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                parent,
                req,
                start,
                end,
            });
        }
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// Writes one JSON object per span, times in microseconds since
    /// `epoch`, ordered by start time.
    pub fn write_jsonl(&self, path: &Path, epoch: Instant) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| s.start);
        let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = match s.parent {
                Some((name, req)) => format!("\"{name}#{req}\""),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"id\":\"{}#{}\",\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.req,
                parent,
                s.name,
                s.req,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}
