//! In-memory spans for the traced run: name, start, end, parent and run
//! id, recorded by the benchmark around its calls into each layer and
//! written out as JSON when the run ends, with self time per layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub run: u64,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Record a span timed elsewhere; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        run: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            run,
            start: self.at(start),
            end: self.at(end),
        });
        self.spans.len() - 1
    }

    /// Open a span that will parent others; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, run: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, run, now, now)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.at(Instant::now());
    }

    /// Run `f` inside a span and return its result and the span's seconds.
    pub fn timed<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, parent, run, t0, t1);
        (out, (t1 - t0).as_secs_f64())
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut reach) = (0.0, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start - covered).max(0.0)
            })
            .collect()
    }

    /// Summed self time per layer, the layer being the span name up to
    /// its first dot.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut by_layer = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
            *by_layer.entry(layer).or_insert(0.0) += t;
        }
        by_layer
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"run\":{},\"start\":{},\"end\":{},\"self\":{}}}",
                s.name, s.run, s.start, s.end, t
            );
        }
        out.push_str("],\"self_time_by_layer\":{");
        for (i, (layer, t)) in self.self_time_by_layer().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{layer}\":{t}");
        }
        out.push_str("}}\n");
        out
    }
}
