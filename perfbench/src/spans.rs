//! In-memory spans: name, start, end, parent and kernel. They are written
//! out once, when the traced run ends.
//!
//! A *probe* span marks work the benchmark adds to see inside a layer (the
//! synthesis stages re-run on the same inputs). Probe time is kept out of
//! the replay's wall and out of every other span's self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or flow) name.
    pub name: &'static str,
    /// Index into [`Tracer::kernels`].
    pub kernel: usize,
    /// Offset from the tracer's epoch.
    pub start: Duration,
    /// Offset from the tracer's epoch.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Whether this is probe work (or inside it).
    pub probe: bool,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    kernels: Vec<&'static str>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            kernels: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a `kernel` root span for the named kernel.
    pub fn kernel<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        assert!(self.stack.is_empty(), "kernel spans are roots");
        self.kernels.push(name);
        self.span("kernel", f)
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name, false);
        let out = f(self);
        self.exit();
        out
    }

    /// Runs `f` inside a probe span.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name, true);
        let out = f(self);
        self.exit();
        out
    }

    fn enter(&mut self, name: &'static str, probe: bool) {
        let parent = self.stack.last().copied();
        let probe = probe || parent.is_some_and(|p| self.spans[p].probe);
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            kernel: self.kernels.len().saturating_sub(1),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent,
            probe,
        });
    }

    fn exit(&mut self) {
        let i = self.stack.pop().expect("every exit follows an enter");
        self.spans[i].end = self.epoch.elapsed();
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Kernel names, in the order their root spans were opened.
    pub fn kernels(&self) -> &[&'static str] {
        &self.kernels
    }

    /// Self time of every span: its duration minus what its children cover
    /// (probe children included, so probe work never counts as a parent's).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.duration());
            }
        }
        out
    }

    /// Duration of every span minus the probe work inside it.
    pub fn net_durations(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in self.spans.iter().filter(|s| s.probe) {
            // Only probe roots: a nested probe is covered by its root.
            let Some(mut up) = s.parent else { continue };
            if self.spans[up].probe {
                continue;
            }
            loop {
                out[up] = out[up].saturating_sub(s.duration());
                match self.spans[up].parent {
                    Some(p) => up = p,
                    None => break,
                }
            }
        }
        out
    }

    /// Seconds per span name: self time for replay spans, full duration for
    /// the leaves of probe spans.
    pub fn seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += t.as_secs_f64();
        }
        out
    }

    /// The replay's wall: every kernel root span, minus the probe work.
    pub fn replay_seconds(&self) -> f64 {
        let net = self.net_durations();
        self.spans
            .iter()
            .zip(net)
            .filter(|(s, _)| s.parent.is_none())
            .map(|(_, d)| d.as_secs_f64())
            .sum()
    }

    /// The spans as JSON, one object per line inside an array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"kernel\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"probe\": {}}}{}",
                s.name,
                self.kernels.get(s.kernel).copied().unwrap_or(""),
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.probe,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_time_excludes_children_and_probes() {
        let mut tr = Tracer::default();
        tr.kernel("k", |tr| {
            tr.span("flow", |tr| {
                spin(Duration::from_millis(2));
                tr.span("synth", |_| spin(Duration::from_millis(3)));
                tr.probe("split", |tr| {
                    tr.span("netlist", |_| spin(Duration::from_millis(4)))
                });
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[4].probe && spans[3].probe && !spans[2].probe);
        let own = tr.self_times();
        let total: Duration = own.iter().sum();
        assert_eq!(total, spans[0].duration(), "self times tile the root");
        let net = tr.net_durations();
        assert!(net[0] < spans[0].duration());
        assert_eq!(net[0], spans[0].duration() - spans[3].duration());
        assert!(
            tr.replay_seconds() >= 0.005 && tr.replay_seconds() < spans[0].duration().as_secs_f64()
        );
        let by_name = tr.seconds_by_name();
        assert!(by_name["netlist"] >= 0.004);
        assert!(tr
            .to_json()
            .contains("\"name\": \"netlist\", \"kernel\": \"k\""));
    }
}
