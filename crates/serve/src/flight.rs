//! Slow-query flight recorder: bounded retention of the span trees and
//! replica/fault annotations of the requests worth looking at.
//!
//! The scheduler classifies every finished request and offers its
//! [`QueryTrace`] — the per-request span tree the engine builds
//! explicitly from [`simpim_obs::TraceCtx`] ids, independent of whether
//! the obs journal is enabled — to a [`FlightRecorder`]. The recorder
//! keeps two bounded sets:
//!
//! * the **N slowest** well-behaved requests (a min-threshold list keyed
//!   on total latency), and
//! * **every anomaly** — failed, shed, timed-out, degraded, or
//!   failed-over request — in a ring that evicts oldest-first.
//!
//! Both dump as JSONL (one trace per line) for `simpim flight` to render
//! as per-stage waterfalls. Trace ids match the exemplar trace ids in the
//! `simpim.serve.stage.*` histograms and the obs journal's `trace_id`
//! field, so a p99 exemplar, a flight line, and a `--trace` dump all
//! cross-reference.

use std::collections::VecDeque;

use simpim_obs::json::{Json, JsonError, ToJson};

/// How a request ended, from the flight recorder's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered exactly, on the routed replica, in time.
    Ok,
    /// Answered exactly but at least one shard fell back to the host
    /// mirror with every replica lost.
    Degraded,
    /// Answered exactly but at least one shard failed over to another
    /// replica mid-batch.
    Failover,
    /// Answered exactly but a recoverable PIM fault shed at least one
    /// shard's pass to the host.
    Shed,
    /// Deadline expired before the scheduler got to it.
    Timeout,
    /// The engine returned an error.
    Failed,
}

impl Outcome {
    /// Stable string form used in JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Failover => "failover",
            Outcome::Shed => "shed",
            Outcome::Timeout => "timeout",
            Outcome::Failed => "failed",
        }
    }

    /// Parses the stable string form.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => Outcome::Ok,
            "degraded" => Outcome::Degraded,
            "failover" => Outcome::Failover,
            "shed" => Outcome::Shed,
            "timeout" => Outcome::Timeout,
            "failed" => Outcome::Failed,
            _ => return None,
        })
    }

    /// Anything other than a clean, on-replica, in-time answer.
    pub fn is_anomaly(&self) -> bool {
        !matches!(self, Outcome::Ok)
    }
}

/// One span in a request's tree. Ids come from the process-wide
/// [`simpim_obs::TraceCtx`] mint, so they are unique across requests and
/// line up with the obs journal.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpan {
    /// Process-unique span id.
    pub span_id: u64,
    /// Parent span id; `None` for the request root.
    pub parent: Option<u64>,
    /// Stage name, e.g. `serve.query.queue`.
    pub name: String,
    /// Start offset in ns (engine epoch).
    pub start_ns: u64,
    /// End offset in ns.
    pub end_ns: u64,
    /// Numeric attributes (batch size, shard index, replica index …).
    pub attrs: Vec<(String, f64)>,
}

impl QuerySpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("span_id", Json::Num(self.span_id as f64)),
            (
                "parent",
                match self.parent {
                    Some(p) => Json::Num(p as f64),
                    None => Json::Null,
                },
            ),
            ("name", Json::Str(self.name.clone())),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            (
                "attrs",
                Json::Obj(
                    self.attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            span_id: u64_field(v, "span_id")?,
            parent: match v.require("parent")? {
                Json::Null => None,
                p => Some(p.as_u64().ok_or_else(|| JsonError::shape("parent"))?),
            },
            name: str_field(v, "name")?,
            start_ns: u64_field(v, "start_ns")?,
            end_ns: u64_field(v, "end_ns")?,
            attrs: v
                .get("attrs")
                .and_then(Json::as_obj)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

/// A required unsigned-integer member of a dump object.
fn u64_field(v: &Json, key: &str) -> Result<u64, JsonError> {
    v.require(key)?
        .as_u64()
        .ok_or_else(|| JsonError::shape(key))
}

/// A required string member of a dump object.
fn str_field(v: &Json, key: &str) -> Result<String, JsonError> {
    let s = v.require(key)?.as_str();
    Ok(s.ok_or_else(|| JsonError::shape(key))?.to_string())
}

/// The complete flight record of one request: its span tree plus the
/// replica/fault annotations collected while serving it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Request trace id (matches histogram exemplars and the obs
    /// journal).
    pub trace_id: u64,
    /// Request kind: `query`, `insert`, `delete`, or `flush`.
    pub kind: String,
    /// How the request ended.
    pub outcome: Outcome,
    /// End-to-end latency in nanoseconds (root span duration).
    pub total_ns: u64,
    /// The span tree; `spans[0]` is the request root.
    pub spans: Vec<QuerySpan>,
    /// Human-readable annotations: routing decisions, failovers,
    /// degraded/shed notes (e.g. `shard 0: failover, served by replica
    /// 1`).
    pub annotations: Vec<String>,
}

impl QueryTrace {
    /// The root span, if the trace is non-empty.
    pub fn root(&self) -> Option<&QuerySpan> {
        self.spans.first()
    }

    /// One JSONL-ready JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::Num(self.trace_id as f64)),
            ("kind", Json::Str(self.kind.clone())),
            ("outcome", Json::Str(self.outcome.as_str().to_string())),
            ("total_ns", Json::Num(self.total_ns as f64)),
            (
                "spans",
                Json::Arr(self.spans.iter().map(QuerySpan::to_json).collect()),
            ),
            (
                "annotations",
                Json::Arr(
                    self.annotations
                        .iter()
                        .map(|a| Json::Str(a.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses one JSONL line back (the `simpim flight` reader).
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let outcome = v
            .require("outcome")?
            .as_str()
            .and_then(Outcome::parse)
            .ok_or_else(|| JsonError::shape("outcome"))?;
        let mut spans = Vec::new();
        for s in v.require("spans")?.as_arr().unwrap_or(&[]) {
            spans.push(QuerySpan::from_json(s)?);
        }
        Ok(Self {
            trace_id: u64_field(v, "trace_id")?,
            kind: str_field(v, "kind")?,
            outcome,
            total_ns: u64_field(v, "total_ns")?,
            spans,
            annotations: v
                .get("annotations")
                .and_then(Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .filter_map(|a| a.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Tree sanity: exactly one root at `spans[0]`, every other span's
    /// parent is an earlier-listed span of this trace (so every span is
    /// reachable from the root), and span ids are unique. Returns the
    /// first problem found.
    pub fn validate_tree(&self) -> Result<(), String> {
        let Some(root) = self.spans.first() else {
            return Err("trace has no spans".into());
        };
        if root.parent.is_some() {
            return Err(format!("spans[0] ({}) has a parent", root.name));
        }
        let mut seen = std::collections::BTreeSet::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !seen.insert(s.span_id) {
                return Err(format!("duplicate span id {}", s.span_id));
            }
            if i > 0 {
                let Some(p) = s.parent else {
                    return Err(format!("span {} ({}) is a second root", s.span_id, s.name));
                };
                if !self.spans[..i].iter().any(|q| q.span_id == p) {
                    return Err(format!(
                        "span {} ({}) has parent {} outside this trace",
                        s.span_id, s.name, p
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Point-in-time recorder occupancy, surfaced in `EngineStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightRecorderStats {
    /// Capacity of each retention set (slowest list and anomaly ring).
    pub capacity: usize,
    /// Slow traces currently retained.
    pub slow_retained: usize,
    /// Anomalous traces currently retained.
    pub anomalies_retained: usize,
    /// Total traces offered since open.
    pub recorded: u64,
    /// Anomalies evicted from the ring (oldest-first) because it was
    /// full.
    pub anomalies_evicted: u64,
}

/// The occupancy keys of the stats documents (`anomalies_evicted` is
/// only in the `serve-bench` artifact, which appends it).
impl ToJson for FlightRecorderStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("capacity", Json::Num(self.capacity as f64)),
            ("slow_retained", Json::Num(self.slow_retained as f64)),
            (
                "anomalies_retained",
                Json::Num(self.anomalies_retained as f64),
            ),
            ("recorded", Json::Num(self.recorded as f64)),
        ])
    }
}

/// Fixed-capacity retention of the traces worth keeping: the N slowest
/// clean requests plus every anomalous one (ring, oldest evicted).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    /// Clean requests, sorted slowest-first, truncated to `capacity`.
    slowest: Vec<QueryTrace>,
    /// Anomalous requests in arrival order.
    anomalies: VecDeque<QueryTrace>,
    recorded: u64,
    anomalies_evicted: u64,
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` slow traces and `capacity`
    /// anomalies (0 disables retention; offers are still counted).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slowest: Vec::new(),
            anomalies: VecDeque::new(),
            recorded: 0,
            anomalies_evicted: 0,
        }
    }

    /// Offers one finished request.
    pub fn record(&mut self, trace: QueryTrace) {
        self.recorded += 1;
        if self.capacity == 0 {
            return;
        }
        if trace.outcome.is_anomaly() {
            self.anomalies.push_back(trace);
            if self.anomalies.len() > self.capacity {
                self.anomalies.pop_front();
                self.anomalies_evicted += 1;
            }
            return;
        }
        if self.slowest.len() < self.capacity {
            self.slowest.push(trace);
            self.slowest.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        } else if trace.total_ns > self.slowest.last().map_or(0, |t| t.total_ns) {
            self.slowest.pop();
            let at = self
                .slowest
                .partition_point(|t| t.total_ns >= trace.total_ns);
            self.slowest.insert(at, trace);
        }
    }

    /// Occupancy counters for `EngineStats`.
    pub fn stats(&self) -> FlightRecorderStats {
        FlightRecorderStats {
            capacity: self.capacity,
            slow_retained: self.slowest.len(),
            anomalies_retained: self.anomalies.len(),
            recorded: self.recorded,
            anomalies_evicted: self.anomalies_evicted,
        }
    }

    /// Everything retained: anomalies in arrival order, then the slow
    /// list slowest-first.
    pub fn traces(&self) -> Vec<&QueryTrace> {
        self.anomalies.iter().chain(self.slowest.iter()).collect()
    }

    /// The whole recorder as JSONL, one [`QueryTrace`] per line
    /// (anomalies first).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for t in self.traces() {
            out.push_str(&t.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

/// Parses a flight-recorder JSONL dump (the `simpim flight` loader).
/// Blank lines are skipped; any malformed line is an error naming its
/// line number.
pub fn parse_dump(text: &str) -> Result<Vec<QueryTrace>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(QueryTrace::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(trace_id: u64, outcome: Outcome, total_ns: u64) -> QueryTrace {
        let root_id = trace_id * 100;
        QueryTrace {
            trace_id,
            kind: "query".into(),
            outcome,
            total_ns,
            spans: vec![
                QuerySpan {
                    span_id: root_id,
                    parent: None,
                    name: "serve.query".into(),
                    start_ns: 0,
                    end_ns: total_ns,
                    attrs: vec![("k".into(), 4.0)],
                },
                QuerySpan {
                    span_id: root_id + 1,
                    parent: Some(root_id),
                    name: "serve.query.queue".into(),
                    start_ns: 0,
                    end_ns: total_ns / 2,
                    attrs: vec![],
                },
            ],
            annotations: vec!["shard 0: replica 1".into()],
        }
    }

    #[test]
    fn keeps_n_slowest_clean_traces() {
        let mut fr = FlightRecorder::new(3);
        for (id, ns) in [(1, 50), (2, 10), (3, 99), (4, 70), (5, 5), (6, 80)] {
            fr.record(trace(id, Outcome::Ok, ns));
        }
        let kept: Vec<u64> = fr.traces().iter().map(|t| t.total_ns).collect();
        assert_eq!(kept, vec![99, 80, 70], "slowest three, sorted");
        let s = fr.stats();
        assert_eq!(s.recorded, 6);
        assert_eq!(s.slow_retained, 3);
        assert_eq!(s.anomalies_retained, 0);
    }

    #[test]
    fn anomalies_always_retained_in_bounded_ring() {
        let mut fr = FlightRecorder::new(2);
        fr.record(trace(1, Outcome::Ok, 1_000_000));
        // Anomalies are kept no matter how fast they were.
        fr.record(trace(2, Outcome::Degraded, 1));
        fr.record(trace(3, Outcome::Failover, 2));
        fr.record(trace(4, Outcome::Timeout, 3));
        let s = fr.stats();
        assert_eq!(s.anomalies_retained, 2, "ring bounded");
        assert_eq!(s.anomalies_evicted, 1, "oldest evicted");
        let ids: Vec<u64> = fr
            .traces()
            .iter()
            .filter(|t| t.outcome.is_anomaly())
            .map(|t| t.trace_id)
            .collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let mut fr = FlightRecorder::new(0);
        fr.record(trace(1, Outcome::Failed, 10));
        assert!(fr.traces().is_empty());
        assert_eq!(fr.stats().recorded, 1);
    }

    #[test]
    fn dump_roundtrips_and_validates() {
        let mut fr = FlightRecorder::new(4);
        fr.record(trace(1, Outcome::Ok, 500));
        fr.record(trace(2, Outcome::Shed, 900));
        let dump = fr.dump_jsonl();
        let back = parse_dump(&dump).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].outcome, Outcome::Shed, "anomalies first");
        for t in &back {
            t.validate_tree().unwrap();
            assert_eq!(t.annotations, vec!["shard 0: replica 1".to_string()]);
        }
        assert!(parse_dump("not json\n").is_err());
        assert!(parse_dump("").unwrap().is_empty());
    }

    #[test]
    fn validate_tree_catches_malformed_trees() {
        let mut t = trace(1, Outcome::Ok, 100);
        t.spans[1].parent = Some(424242);
        assert!(t
            .validate_tree()
            .unwrap_err()
            .contains("outside this trace"));
        let mut t = trace(1, Outcome::Ok, 100);
        t.spans[1].parent = None;
        assert!(t.validate_tree().unwrap_err().contains("second root"));
        let mut t = trace(1, Outcome::Ok, 100);
        t.spans[1].span_id = t.spans[0].span_id;
        assert!(t.validate_tree().unwrap_err().contains("duplicate"));
        let empty = QueryTrace {
            trace_id: 1,
            kind: "query".into(),
            outcome: Outcome::Ok,
            total_ns: 0,
            spans: vec![],
            annotations: vec![],
        };
        assert!(empty.validate_tree().is_err());
    }
}
