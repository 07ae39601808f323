//! Spans recorded from the benchmark's own files, around its calls into
//! each layer.  Every span carries the request id (shared by the same
//! request in every pass) and its parent; all requests feed per-route
//! histograms, and the first [`KEEP`] requests keep their spans for the
//! joins and the Chrome trace written at exit.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::gen::Route;
use crate::hist::Hist;

/// Requests per pass whose spans are kept (the rest only feed histograms).
pub const KEEP: u64 = 2000;
/// The root name of the engine pass, whose spans are named
/// `engine.<route>` after the machine layer each request reaches.
pub const ENGINE_ROOT: &str = "engine";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans for one pass: a root span per request over
/// contiguous child phases.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    tid: usize,
    root: &'static str,
    children: &'static [&'static str],
    /// `hists[phase][route]`, phase 0 being the root.
    hists: Vec<Vec<Hist>>,
    pub kept: Vec<Span>,
}

impl SpanLog {
    pub fn new(
        epoch: Instant,
        tid: usize,
        root: &'static str,
        children: &'static [&'static str],
    ) -> SpanLog {
        SpanLog {
            epoch,
            tid,
            root,
            children,
            hists: vec![vec![Hist::default(); Route::COUNT]; children.len() + 1],
            kept: Vec::new(),
        }
    }

    /// Record request `req`: `stamps` bound the child phases in order
    /// (`stamps.len() == children + 1`), and the root spans them all.
    /// Under [`ENGINE_ROOT`] the span is named after the route's layer.
    pub fn record(&mut self, req: u64, route: Route, stamps: &[Instant]) {
        debug_assert_eq!(stamps.len(), self.children.len() + 1);
        let epoch = self.epoch;
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        let (first, last) = (stamps[0], stamps[stamps.len() - 1]);
        let root = if self.root == ENGINE_ROOT {
            route.engine_span()
        } else {
            self.root
        };
        self.push(0, route, req, root, None, ns(first), ns(last));
        let children = self.children;
        for (k, name) in children.iter().enumerate() {
            let (start, end) = (ns(stamps[k]), ns(stamps[k + 1]));
            self.push(k + 1, route, req, name, Some(root), start, end);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        phase: usize,
        route: Route,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.hists[phase][route.index()].record(end_ns - start_ns);
        if req < KEEP {
            self.kept.push(Span {
                req,
                name,
                parent,
                start_ns,
                end_ns,
                tid: self.tid,
            });
        }
    }

    /// Merge another thread's log of the same pass into this one.
    pub fn merge(&mut self, other: SpanLog) {
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.merge(b);
            }
        }
        self.kept.extend(other.kept);
    }

    fn phase(&self, name: &str) -> Option<usize> {
        if name == self.root {
            return Some(0);
        }
        self.children.iter().position(|c| *c == name).map(|i| i + 1)
    }

    /// The histogram of phase `name` for one route, or over all routes.
    pub fn hist(&self, name: &str, route: Option<Route>) -> Hist {
        let mut out = Hist::default();
        if let Some(phase) = self.phase(name) {
            for (r, h) in self.hists[phase].iter().enumerate() {
                if route.is_none_or(|route| route.index() == r) {
                    out.merge(h);
                }
            }
        }
        out
    }

    /// Duration of each kept request's span `name`, by request id.
    pub fn durations(&self, name: &str) -> HashMap<u64, u64> {
        self.kept
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.req, s.dur_ns()))
            .collect()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Write the kept spans of every pass as a Chrome trace-event document
/// (load it in `chrome://tracing` or Perfetto); one process per pass.
pub fn write_chrome(path: &Path, passes: &[(&str, &SpanLog)]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    for (pid, (label, log)) in passes.iter().enumerate() {
        let sep = if first { "" } else { "," };
        first = false;
        write!(
            out,
            "{sep}\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
            json_str(label)
        )?;
        for s in &log.kept {
            let parent = s.parent.map_or("null".to_string(), json_str);
            write!(
                out,
                ",\n{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"req\":{},\"parent\":{parent}}}}}",
                json_str(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req
            )?;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}
