//! Process-wide metrics registry: counters, gauges, and log-linear
//! histograms.
//!
//! Metric names follow the convention `simpim.<crate>.<stage>.<metric>`
//! (e.g. `simpim.mining.knn.refinements`,
//! `simpim.bounds.LB_FNN^16.pruned`). The registry is a single mutex-held
//! `BTreeMap`, updated at per-query / per-batch granularity — cheap enough
//! to stay on in release builds, which is why there is no disable switch.
//!
//! Histograms are log-linear (HDR-style): exact buckets for small values,
//! then every power-of-two octave split into [`Histogram::SUBBUCKETS`]
//! linear sub-buckets, giving ≤ 25% relative bucket width over the full
//! `u64` range in a fixed 256-slot footprint.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::json::{Json, JsonError, ToJson};

/// Sub-bucket resolution bits: each octave splits into `2^SUB_BITS`
/// linear sub-buckets.
const SUB_BITS: u32 = 2;
/// Values below this are bucketed exactly (one bucket per value).
const LINEAR_MAX: u64 = 1 << (SUB_BITS + 1); // 8

/// A fixed-footprint log-linear histogram over `u64` samples.
///
/// Each bucket can carry one **exemplar** — the `(value, trace_id)` of the
/// worst sample recorded into it via [`Histogram::record_exemplar`] — so a
/// p99 read from the histogram is one lookup away from a concrete trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    /// Per-bucket worst exemplar as `(value, trace_id)`; `trace_id == 0`
    /// means the slot is empty (trace ids are minted from 1). Kept in
    /// lockstep with `counts`.
    exemplars: Vec<(u64, u64)>,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (saturating).
    pub sum: u64,
    /// Smallest recorded sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// Number of linear sub-buckets per octave.
    pub const SUBBUCKETS: u64 = 1 << SUB_BITS;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            exemplars: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value < LINEAR_MAX {
            return value as usize;
        }
        let major = 63 - value.leading_zeros(); // ≥ SUB_BITS + 1
        let minor = (value >> (major - SUB_BITS)) & (Self::SUBBUCKETS - 1);
        // Buckets 0..LINEAR_MAX are the exact values; octave `major`
        // contributes SUBBUCKETS buckets starting at its base.
        (LINEAR_MAX + (major - (SUB_BITS + 1)) as u64 * Self::SUBBUCKETS + minor) as usize
    }

    /// The smallest value mapping to bucket `i` (inclusive lower bound).
    pub fn bucket_lower_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < LINEAR_MAX {
            return i;
        }
        let rel = i - LINEAR_MAX;
        let major = SUB_BITS as u64 + 1 + rel / Self::SUBBUCKETS;
        let minor = rel % Self::SUBBUCKETS;
        if major >= 64 {
            // Past the last representable octave.
            return u64::MAX;
        }
        (1u64 << major).saturating_add(minor << (major - SUB_BITS as u64))
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
            self.exemplars.resize(idx + 1, (0, 0));
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records one sample tagged with the trace it came from; the bucket
    /// keeps the exemplar of its *worst* (largest) tagged sample. A
    /// `trace_id` of 0 degrades to a plain [`Histogram::record`].
    pub fn record_exemplar(&mut self, value: u64, trace_id: u64) {
        self.record(value);
        if trace_id == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        let slot = &mut self.exemplars[idx];
        if slot.1 == 0 || value >= slot.0 {
            *slot = (value, trace_id);
        }
    }

    /// The exemplar `(value, trace_id)` stored in the bucket containing
    /// the (approximate) `q`-quantile, or the nearest bucket at or above
    /// it (falling back to the nearest below). The way to answer "show me
    /// a concrete p99 request".
    pub fn exemplar_near_quantile(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut qbucket = self.counts.len().saturating_sub(1);
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                qbucket = i;
                break;
            }
        }
        // Worst tagged sample at or above the quantile bucket…
        if let Some(&(v, t)) = self.exemplars[qbucket..]
            .iter()
            .rev()
            .find(|&&(_, t)| t != 0)
        {
            return Some((v, t));
        }
        // …or the closest one below it.
        self.exemplars[..qbucket]
            .iter()
            .rev()
            .find(|&&(_, t)| t != 0)
            .copied()
    }

    /// Number of samples strictly greater than `threshold`, to bucket
    /// resolution (a partially-straddling bucket counts as not-over; the
    /// observed `min`/`max` resolve the all-or-nothing cases exactly).
    pub fn count_over(&self, threshold: u64) -> u64 {
        if self.count == 0 || self.max <= threshold {
            return 0;
        }
        if self.min > threshold {
            return self.count;
        }
        let start = Self::bucket_index(threshold) + 1;
        self.counts.iter().skip(start).sum()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
            self.exemplars.resize(other.counts.len(), (0, 0));
        }
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        for (i, &(v, t)) in other.exemplars.iter().enumerate() {
            if t != 0 {
                let slot = &mut self.exemplars[i];
                if slot.1 == 0 || v >= slot.0 {
                    *slot = (v, t);
                }
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q ∈ [0, 1]`): the *midpoint* of the bucket
    /// containing the q-th sample, clamped to the observed min/max.
    ///
    /// Midpoint rather than lower bound: a lower bound systematically
    /// under-reports by up to a full bucket width, and for a distribution
    /// concentrated in one bucket it collapses every quantile to `min`.
    /// The midpoint is within half a bucket width (≤ 12.5% relative
    /// error) of the true rank position, and the min/max clamp keeps
    /// degenerate single-value distributions exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::bucket_lower_bound(i);
                let hi = Self::bucket_lower_bound(i + 1);
                let mid = lo + hi.saturating_sub(lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Occupied buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lower_bound(i), c))
            .collect()
    }

    /// Percentile-first JSON summary — the reporting shape every latency
    /// table in the bench artifacts uses: `count`, then `p50`/`p95`/`p99`
    /// (bucket midpoints, see [`Histogram::quantile`]), then `mean`,
    /// `min`, `max`. Keys carry no unit suffix; callers record samples in
    /// nanoseconds by convention.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("p50", Json::Num(self.quantile(0.5) as f64)),
            ("p95", Json::Num(self.quantile(0.95) as f64)),
            ("p99", Json::Num(self.quantile(0.99) as f64)),
            ("mean", Json::Num(self.mean())),
            (
                "min",
                Json::Num(if self.count == 0 {
                    0.0
                } else {
                    self.min as f64
                }),
            ),
            ("max", Json::Num(self.max as f64)),
        ])
    }

    /// Occupied exemplar slots as `(bucket_lower_bound, value, trace_id)`.
    pub fn nonzero_exemplars(&self) -> Vec<(u64, u64, u64)> {
        self.exemplars
            .iter()
            .enumerate()
            .filter(|(_, &(_, t))| t != 0)
            .map(|(i, &(v, t))| (Self::bucket_lower_bound(i), v, t))
            .collect()
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("type", Json::Str("histogram".into())),
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            (
                "min",
                Json::Num(if self.count == 0 {
                    0.0
                } else {
                    self.min as f64
                }),
            ),
            ("max", Json::Num(self.max as f64)),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(lo, c)| Json::Arr(vec![Json::Num(lo as f64), Json::Num(c as f64)]))
                        .collect(),
                ),
            ),
        ];
        let ex = self.nonzero_exemplars();
        if !ex.is_empty() {
            fields.push((
                "exemplars",
                Json::Arr(
                    ex.into_iter()
                        .map(|(lo, v, t)| {
                            Json::Arr(vec![
                                Json::Num(lo as f64),
                                Json::Num(v as f64),
                                Json::Num(t as f64),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic event count.
    Counter(u64),
    /// Last-written value.
    Gauge(f64),
    /// Sample distribution.
    Histogram(Histogram),
}

impl Metric {
    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            Metric::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            Metric::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram, if this is one.
    pub fn as_histogram(&self) -> Option<&Histogram> {
        match self {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

impl ToJson for Metric {
    fn to_json(&self) -> Json {
        match self {
            Metric::Counter(v) => Json::obj([
                ("type", Json::Str("counter".into())),
                ("value", Json::Num(*v as f64)),
            ]),
            Metric::Gauge(v) => Json::obj([
                ("type", Json::Str("gauge".into())),
                ("value", Json::Num(*v)),
            ]),
            Metric::Histogram(h) => h.to_json(),
        }
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn with_registry<R>(f: impl FnOnce(&mut BTreeMap<String, Metric>) -> R) -> R {
    let mut guard = registry().lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Applies `update` to the metric `name`, inserting `fresh` first when
/// the name is new — the only event that allocates the key.
fn with_metric(name: &str, fresh: Metric, update: impl FnOnce(&mut Metric)) {
    with_registry(|reg| match reg.get_mut(name) {
        Some(metric) => update(metric),
        None => update(reg.entry(name.to_string()).or_insert(fresh)),
    });
}

/// Adds `n` to the counter `name` (created at zero on first use). A name
/// registered as a different kind is left untouched.
pub fn counter_add(name: &str, n: u64) {
    with_metric(name, Metric::Counter(0), |m| {
        if let Metric::Counter(v) = m {
            *v += n;
        }
    });
}

/// Sets the gauge `name` to `v` (created on first use).
pub fn gauge_set(name: &str, v: f64) {
    with_metric(name, Metric::Gauge(v), |m| {
        if let Metric::Gauge(g) = m {
            *g = v;
        }
    });
}

/// Records `v` into the histogram `name` (created on first use).
pub fn histogram_record(name: &str, v: u64) {
    with_metric(name, Metric::Histogram(Histogram::new()), |m| {
        if let Metric::Histogram(h) = m {
            h.record(v);
        }
    });
}

/// Records `v` into the histogram `name`, tagging its bucket with the
/// worst-sample exemplar `trace_id` (see [`Histogram::record_exemplar`]).
pub fn histogram_record_exemplar(name: &str, v: u64, trace_id: u64) {
    with_metric(name, Metric::Histogram(Histogram::new()), |m| {
        if let Metric::Histogram(h) = m {
            h.record_exemplar(v, trace_id);
        }
    });
}

/// Clears every metric.
pub fn reset() {
    with_registry(|reg| reg.clear());
}

/// A point-in-time copy of the registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Name → metric, sorted by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// Copies the current registry contents.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        metrics: with_registry(|reg| reg.clone()),
    }
}

impl MetricsSnapshot {
    /// The counter value under `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.get(name).and_then(Metric::as_counter)
    }

    /// The gauge value under `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).and_then(Metric::as_gauge)
    }

    /// The histogram under `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.metrics.get(name).and_then(Metric::as_histogram)
    }

    /// Names matching a `prefix.*.suffix` pattern: returns the middle
    /// segment of every metric named `<prefix><middle><suffix>`.
    pub fn middles(&self, prefix: &str, suffix: &str) -> Vec<String> {
        self.metrics
            .keys()
            .filter_map(|k| {
                k.strip_prefix(prefix)
                    .and_then(|rest| rest.strip_suffix(suffix))
                    .filter(|mid| !mid.is_empty())
                    .map(str::to_string)
            })
            .collect()
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(k, m)| (k.clone(), m.to_json()))
                .collect(),
        )
    }
}

impl crate::json::FromJson for MetricsSnapshot {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let pairs = v
            .as_obj()
            .ok_or_else(|| JsonError::shape("metrics must be an object"))?;
        let mut metrics = BTreeMap::new();
        for (name, m) in pairs {
            let kind = m
                .require("type")?
                .as_str()
                .ok_or_else(|| JsonError::shape("metric type must be a string"))?;
            let metric = match kind {
                "counter" => Metric::Counter(
                    m.require("value")?
                        .as_u64()
                        .ok_or_else(|| JsonError::shape("counter value"))?,
                ),
                "gauge" => Metric::Gauge(
                    m.require("value")?
                        .as_f64()
                        .ok_or_else(|| JsonError::shape("gauge value"))?,
                ),
                "histogram" => {
                    let mut h = Histogram::new();
                    h.count = m.require("count")?.as_u64().unwrap_or(0);
                    h.sum = m.require("sum")?.as_u64().unwrap_or(0);
                    h.max = m.require("max")?.as_u64().unwrap_or(0);
                    let min = m.require("min")?.as_u64().unwrap_or(0);
                    h.min = if h.count == 0 { u64::MAX } else { min };
                    for b in m.require("buckets")?.as_arr().unwrap_or(&[]) {
                        let pair = b.as_arr().unwrap_or(&[]);
                        if let (Some(lo), Some(c)) = (
                            pair.first().and_then(Json::as_u64),
                            pair.get(1).and_then(Json::as_u64),
                        ) {
                            let idx = Histogram::bucket_index(lo);
                            if h.counts.len() <= idx {
                                h.counts.resize(idx + 1, 0);
                                h.exemplars.resize(idx + 1, (0, 0));
                            }
                            h.counts[idx] += c;
                        }
                    }
                    // Exemplars are optional (pre-exemplar artifacts omit
                    // the key entirely).
                    if let Some(ex) = m.get("exemplars").and_then(Json::as_arr) {
                        for e in ex {
                            let triple = e.as_arr().unwrap_or(&[]);
                            if let (Some(lo), Some(v), Some(t)) = (
                                triple.first().and_then(Json::as_u64),
                                triple.get(1).and_then(Json::as_u64),
                                triple.get(2).and_then(Json::as_u64),
                            ) {
                                let idx = Histogram::bucket_index(lo);
                                if h.exemplars.len() <= idx {
                                    h.counts.resize(idx + 1, 0);
                                    h.exemplars.resize(idx + 1, (0, 0));
                                }
                                h.exemplars[idx] = (v, t);
                            }
                        }
                    }
                    Metric::Histogram(h)
                }
                other => return Err(JsonError::shape(format!("unknown metric type {other:?}"))),
            };
            metrics.insert(name.clone(), metric);
        }
        Ok(Self { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::FromJson;

    #[test]
    fn bucket_boundaries_are_monotone_and_consistent() {
        // Every value maps into the bucket whose [lower, next-lower)
        // range contains it.
        for v in (0..200u64).chain([255, 256, 257, 1000, 1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let i = Histogram::bucket_index(v);
            let lo = Histogram::bucket_lower_bound(i);
            assert!(lo <= v, "lower bound {lo} > value {v}");
            let next = Histogram::bucket_lower_bound(i + 1);
            assert!(
                v < next || i == Histogram::bucket_index(u64::MAX),
                "value {v} ≥ next bucket lower bound {next}"
            );
        }
        // Lower bounds strictly increase over the full valid range.
        for i in 0..Histogram::bucket_index(u64::MAX) {
            assert!(
                Histogram::bucket_lower_bound(i) < Histogram::bucket_lower_bound(i + 1),
                "bucket {i} not increasing"
            );
        }
        // Exact buckets below LINEAR_MAX.
        for v in 0..LINEAR_MAX {
            assert_eq!(Histogram::bucket_lower_bound(Histogram::bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_relative_width_bounded() {
        // Log-linear with 4 sub-buckets: width/lower ≤ 1/4 beyond the
        // linear region.
        for i in (LINEAR_MAX as usize)..250 {
            let lo = Histogram::bucket_lower_bound(i);
            let hi = Histogram::bucket_lower_bound(i + 1);
            assert!(
                (hi - lo) as f64 / lo as f64 <= 0.25 + 1e-12,
                "bucket {i}: [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count, 100);
        assert_eq!(h.sum, 5050);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        // Bucket midpoints, pinned: the 50th sample (value 50) lands in
        // bucket [48, 56) → midpoint 52; within half a bucket width of
        // the true rank position.
        assert_eq!(h.quantile(0.5), 52);
        // Rank-90 sample (90) in [80, 96) → midpoint 88.
        assert_eq!(h.quantile(0.9), 88);
        // Rank-99 sample (99) in [96, 112) → midpoint 104, clamped to max.
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(1.0), 100);
        // q = 0 resolves to rank 1 (value 1, an exact linear bucket).
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn quantile_of_single_bucket_distribution_does_not_collapse_to_min() {
        // Regression: with lower-bound quantiles, any distribution
        // concentrated in one bucket reported min for every quantile.
        let mut h = Histogram::new();
        for v in 50..=55u64 {
            h.record(v); // all in bucket [48, 56)
        }
        assert_eq!(h.quantile(0.5), 52, "midpoint, not min");
        assert!(h.quantile(0.5) > h.min);
        assert_eq!(h.quantile(0.99), 52);
        // A single repeated value stays exact through the min/max clamp.
        let mut one = Histogram::new();
        for _ in 0..100 {
            one.record(42);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 42, "q = {q}");
        }
    }

    #[test]
    fn exemplars_keep_worst_sample_per_bucket() {
        let mut h = Histogram::new();
        h.record_exemplar(50, 7);
        h.record_exemplar(54, 8); // same bucket [48,56), larger → wins
        h.record_exemplar(51, 9); // smaller → ignored
        h.record_exemplar(1000, 11);
        h.record(2000); // untagged: counted, no exemplar
        assert_eq!(h.count, 5);
        let ex = h.nonzero_exemplars();
        assert_eq!(ex.len(), 2);
        assert!(ex.contains(&(48, 54, 8)));
        // p99 exemplar: worst tagged sample at/above the quantile bucket.
        let (v, t) = h.exemplar_near_quantile(0.99).unwrap();
        assert_eq!((v, t), (1000, 11));
        // Quantile bucket above every exemplar falls back to nearest below.
        let mut tail = Histogram::new();
        tail.record_exemplar(10, 3);
        for _ in 0..99 {
            tail.record(1 << 20);
        }
        assert_eq!(tail.exemplar_near_quantile(0.99), Some((10, 3)));
        assert_eq!(Histogram::new().exemplar_near_quantile(0.5), None);
    }

    #[test]
    fn summary_json_is_percentile_first() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summary_json();
        assert_eq!(s.get("count").and_then(Json::as_u64), Some(100));
        assert_eq!(s.get("p50").and_then(Json::as_u64), Some(h.quantile(0.5)));
        assert_eq!(s.get("p99").and_then(Json::as_u64), Some(h.quantile(0.99)));
        assert_eq!(s.get("max").and_then(Json::as_u64), Some(100));
        // Percentiles lead the object: tooling that prints the first
        // few keys shows the tail numbers, not bookkeeping.
        let keys: Vec<&str> = s
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys[..4], ["count", "p50", "p95", "p99"]);
        let empty = Histogram::new().summary_json();
        assert_eq!(empty.get("min").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn count_over_threshold() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 200, 4000] {
            h.record(v);
        }
        assert_eq!(h.count_over(0), 6);
        assert_eq!(h.count_over(3), 3);
        assert_eq!(h.count_over(150), 2, "200 and 4000 are over");
        assert_eq!(h.count_over(4000), 0, "max <= threshold → exact 0");
        assert_eq!(h.count_over(u64::MAX), 0);
        assert_eq!(Histogram::new().count_over(0), 0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in [0u64, 1, 7, 8, 100, 1 << 30] {
            a.record(v);
            c.record(v);
        }
        for v in [3u64, 1 << 20, u64::MAX] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let n = "simpim.test.registry.counter";
        let g = "simpim.test.registry.gauge";
        let h = "simpim.test.registry.hist";
        counter_add(n, 2);
        counter_add(n, 3);
        gauge_set(g, 1.5);
        gauge_set(g, 2.5);
        histogram_record(h, 10);
        histogram_record(h, 20);
        let snap = snapshot();
        assert_eq!(snap.counter(n), Some(5));
        assert_eq!(snap.gauge(g), Some(2.5));
        assert_eq!(snap.histogram(h).unwrap().count, 2);
        assert_eq!(snap.counter(g), None, "kind accessors are typed");
    }

    #[test]
    fn middles_extracts_stage_names() {
        counter_add("simpim.test.mid.STAGE_A.seen", 1);
        counter_add("simpim.test.mid.STAGE_B.seen", 1);
        let snap = snapshot();
        let mids = snap.middles("simpim.test.mid.", ".seen");
        assert!(mids.contains(&"STAGE_A".to_string()));
        assert!(mids.contains(&"STAGE_B".to_string()));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let ns = "simpim.test.roundtrip";
        counter_add(&format!("{ns}.c"), 7);
        gauge_set(&format!("{ns}.g"), 0.25);
        histogram_record(&format!("{ns}.h"), 1234);
        histogram_record(&format!("{ns}.h"), 5);
        histogram_record_exemplar(&format!("{ns}.h"), 9999, 42);
        let snap = snapshot();
        let text = snap.to_json().to_string();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.counter(&format!("{ns}.c")), Some(7));
        assert_eq!(back.gauge(&format!("{ns}.g")), Some(0.25));
        let h = back.histogram(&format!("{ns}.h")).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 5);
        assert_eq!(
            h.nonzero_exemplars(),
            vec![(
                Histogram::bucket_lower_bound(Histogram::bucket_index(9999)),
                9999,
                42
            )],
            "exemplars survive the JSON round-trip"
        );
    }
}
