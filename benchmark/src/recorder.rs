//! The benchmark's own span recorder. Spans are taken around calls into
//! the layers, from the benchmark's files only; they stay in memory and
//! are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share this.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns the span's index with `f`'s
    /// value. When disabled the index is `None` and nothing is kept.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (Option<u32>, T) {
        if !self.enabled {
            return (None, f());
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (Some(self.spans.len() as u32 - 1), out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus its children's. Negative when the inner
    /// calls, replayed on their own, ran longer than the call they were
    /// replayed from.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.dur_ns() as i64;
            }
        }
        own
    }

    /// Duration (`of_self == false`) or self time of every span called
    /// `name`, one value per span.
    pub fn per_span(&self, name: &str, of_self: bool) -> Vec<i64> {
        let own = self.self_ns();
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| {
                if of_self {
                    own[i]
                } else {
                    self.spans[i].dur_ns() as i64
                }
            })
            .collect()
    }

    /// [`Recorder::per_span`] summed per request: what one request cost
    /// in that layer over all the shards it touched.
    pub fn per_request(&self, name: &str, of_self: bool) -> Vec<i64> {
        let own = self.self_ns();
        let mut by_request: BTreeMap<u32, i64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                *by_request.entry(s.request).or_default() +=
                    if of_self { own[i] } else { s.dur_ns() as i64 };
            }
        }
        by_request.into_values().collect()
    }

    /// Over the spans from index `from` on (the replay), per request:
    /// each layer's self time summed over its spans and floored at 0,
    /// over the request's outermost spans; then the median over the
    /// requests. Unfloored the self times sum to the outermost spans
    /// exactly, so a request reads 1 unless some layer, replayed on its
    /// own, took longer than the call it was replayed from. The median
    /// keeps one request that the host's scheduler interrupted between
    /// its outer and its inner calls from deciding the whole replay.
    pub fn self_sum_frac(&self, from: usize) -> f64 {
        let own = self.self_ns();
        let mut by_request: BTreeMap<u32, (BTreeMap<&str, i64>, i64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own).skip(from) {
            let (by_name, roots) = by_request.entry(s.request).or_default();
            *by_name.entry(s.name).or_default() += own;
            if s.parent.is_none() {
                *roots += s.dur_ns() as i64;
            }
        }
        let fracs: Vec<f64> = by_request
            .values()
            .filter(|(_, roots)| *roots > 0)
            .map(|(by_name, roots)| {
                by_name.values().map(|&ns| ns.max(0)).sum::<i64>() as f64 / *roots as f64
            })
            .collect();
        if fracs.is_empty() {
            return 0.0;
        }
        median(&fracs)
    }

    /// [`Recorder::self_sum_frac`] for a replay whose requests all repeat
    /// the same work: each layer's time is that of its quickest request
    /// (the one the host disturbed least), and the self times are taken
    /// between those. Layers this long (tens of milliseconds, nearly
    /// equal from one level to the next) are otherwise compared across a
    /// scheduler's time slice more often than not.
    pub fn quiet_self_sum_frac(&self, from: usize) -> f64 {
        // Per layer: the calling layer, and its time per request.
        let mut layers: BTreeMap<&str, (Option<&str>, BTreeMap<u32, i64>)> = BTreeMap::new();
        for s in &self.spans[from..] {
            let parent = s.parent.map(|p| self.spans[p as usize].name);
            let (_, by_request) = layers.entry(s.name).or_insert((parent, BTreeMap::new()));
            *by_request.entry(s.request).or_default() += s.dur_ns() as i64;
        }
        let quiet = |name: &str| layers[name].1.values().copied().min().unwrap_or(0);
        let mut own: BTreeMap<&str, i64> = layers.keys().map(|&n| (n, quiet(n))).collect();
        let mut roots = 0i64;
        for (&name, (parent, _)) in &layers {
            match parent {
                Some(p) => *own.entry(p).or_default() -= quiet(name),
                None => roots += quiet(name),
            }
        }
        if roots == 0 {
            return 0.0;
        }
        own.values().map(|&ns| ns.max(0)).sum::<i64>() as f64 / roots as f64
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
