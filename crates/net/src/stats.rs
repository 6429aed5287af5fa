//! JSON projections of engine and transport statistics.
//!
//! The `Stats` opcode answers one JSON document with two sections:
//! `engine` (a [`EngineStats`] projection — counters, stage latency
//! percentiles, SLO reports) and `net` (the server's [`NetStats`]). A
//! remote operator gets the same numbers `EngineStats` exposes
//! in-process, without the server linking any serialization framework.

use simpim_obs::{Json, ToJson};
use simpim_serve::EngineStats;

/// Counter snapshot of one [`crate::NetServer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted since bind.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Request frames decoded.
    pub frames_rx: u64,
    /// Response frames written.
    pub frames_tx: u64,
    /// Payload bytes received (length prefixes excluded).
    pub bytes_rx: u64,
    /// Payload bytes written.
    pub bytes_tx: u64,
    /// Frames that failed to decode (answered with `bad_frame` /
    /// `unsupported_version` error frames, or the connection closed).
    pub decode_errors: u64,
    /// Requests shed because the connection's in-flight window was full
    /// — the transport edge of the admission-control path.
    pub window_sheds: u64,
    /// Requests shed by the engine's bounded submission queue
    /// (`ServeError::Overloaded` after the window admitted them).
    pub engine_sheds: u64,
    /// Connections dropped on a socket error or a slow-reader write
    /// timeout.
    pub transport_errors: u64,
}

impl NetStats {
    /// Total admission-control sheds across both layers.
    pub fn sheds(&self) -> u64 {
        self.window_sheds + self.engine_sheds
    }
}

impl ToJson for NetStats {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "connections_accepted",
                Json::Num(self.connections_accepted as f64),
            ),
            ("connections_open", Json::Num(self.connections_open as f64)),
            ("frames_rx", Json::Num(self.frames_rx as f64)),
            ("frames_tx", Json::Num(self.frames_tx as f64)),
            ("bytes_rx", Json::Num(self.bytes_rx as f64)),
            ("bytes_tx", Json::Num(self.bytes_tx as f64)),
            ("decode_errors", Json::Num(self.decode_errors as f64)),
            ("window_sheds", Json::Num(self.window_sheds as f64)),
            ("engine_sheds", Json::Num(self.engine_sheds as f64)),
            ("transport_errors", Json::Num(self.transport_errors as f64)),
        ])
    }
}

/// Projects [`EngineStats`] to JSON: every scalar counter, the per-stage
/// latency percentiles, and the SLO reports. Per-shard replica detail is
/// summarized (healthy replicas per shard) rather than dumped — the wire
/// document is for dashboards and gates, not debugging a single bank.
pub fn engine_stats_json(s: &EngineStats) -> Json {
    Json::obj([
        ("live", Json::Num(s.live as f64)),
        ("replicas", Json::Num(s.replicas as f64)),
        ("shards", Json::Num(s.shards.len() as f64)),
        (
            "healthy_per_shard",
            Json::Arr(
                s.shards
                    .iter()
                    .map(|sh| Json::Num(sh.healthy as f64))
                    .collect(),
            ),
        ),
        ("queries", Json::Num(s.queries as f64)),
        ("batches", Json::Num(s.batches as f64)),
        ("inserts", Json::Num(s.inserts as f64)),
        ("deletes", Json::Num(s.deletes as f64)),
        ("answered_ok", Json::Num(s.answered_ok as f64)),
        ("failed", Json::Num(s.failed as f64)),
        ("timeouts", Json::Num(s.timeouts as f64)),
        ("overloaded", Json::Num(s.overloaded as f64)),
        ("fault_sheds", Json::Num(s.sheds as f64)),
        ("failovers", Json::Num(s.failovers as f64)),
        ("repairs", Json::Num(s.repairs as f64)),
        ("degraded_queries", Json::Num(s.degraded_queries as f64)),
        ("degraded_shards", Json::Num(s.degraded_shards as f64)),
        (
            "stage_latency",
            Json::Arr(s.stage_latency.iter().map(ToJson::to_json).collect()),
        ),
        (
            "slo",
            Json::Arr(s.slo.iter().map(ToJson::to_json).collect()),
        ),
        ("flight", s.flight.to_json()),
    ])
}

/// The combined document the `Stats` opcode answers.
pub fn stats_document(engine: &EngineStats, net: &NetStats) -> String {
    Json::obj([
        ("engine", engine_stats_json(engine)),
        ("net", net.to_json()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_document_parses_back_with_both_sections() {
        let net = NetStats {
            connections_accepted: 2,
            window_sheds: 3,
            engine_sheds: 4,
            ..Default::default()
        };
        assert_eq!(net.sheds(), 7);
        let doc = stats_document(&EngineStats::default(), &net);
        let v = Json::parse(&doc).unwrap();
        assert_eq!(
            v.get("net")
                .and_then(|n| n.get("window_sheds"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("engine")
                .and_then(|e| e.get("overloaded"))
                .and_then(Json::as_u64),
            Some(0)
        );
        // Distinct shed/timeout/transport taxonomy is visible on the wire.
        for key in ["timeouts", "overloaded", "fault_sheds"] {
            assert!(v.get("engine").and_then(|e| e.get(key)).is_some(), "{key}");
        }
        assert!(v
            .get("net")
            .and_then(|n| n.get("transport_errors"))
            .is_some());
    }
}
