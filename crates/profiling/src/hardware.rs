//! Hardware-component profiling (Section IV-A) — the PAPI substitute.
//!
//! Converts an algorithm's accumulated counters into the five Eq. 1 stall
//! classes, and cross-checks the analytical memory-stall assumption with
//! the trace-driven cache simulator on a sampled access pattern.

use simpim_simkit::{CacheConfig, Hierarchy, HostParams, OpCounters, TimeBreakdown};

/// The Fig. 5 view: Eq. 1 components of a whole algorithm run.
pub fn hardware_breakdown(counters: &OpCounters, params: &HostParams) -> TimeBreakdown {
    params.evaluate(counters)
}

/// Result of the trace-driven cross-check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCheck {
    /// Fraction of line fetches serviced by memory in the cache simulator.
    pub simulated_memory_fraction: f64,
    /// Average simulated access latency (ns).
    pub simulated_avg_latency_ns: f64,
}

/// Replays a Standard-scan access pattern (one sequential pass over
/// `bytes_per_object × objects`, repeated `passes` times) through the paper
/// machine's cache hierarchy. The analytical model assumes one-pass scans
/// of data far larger than L3 miss essentially every line — this check
/// quantifies that on a down-scaled trace.
pub fn scan_trace_check(objects: u64, bytes_per_object: u64, passes: u32) -> TraceCheck {
    let mut h = Hierarchy::paper_machine();
    let total = objects * bytes_per_object;
    for _ in 0..passes {
        h.stream_range(0, total, 8);
    }
    let s = *h.stats();
    let line = CacheConfig::l1().line_bytes as u64;
    let lines = total / line * u64::from(passes);
    TraceCheck {
        simulated_memory_fraction: if lines == 0 {
            0.0
        } else {
            s.memory as f64 / lines as f64
        },
        simulated_avg_latency_ns: s.avg_latency_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_delegates_to_model() {
        let mut c = OpCounters::new();
        c.euclidean_kernel(420, 420 * 8);
        let b = hardware_breakdown(&c, &HostParams::default());
        assert!(b.total_ns() > 0.0);
        assert!(b.tcache_ns > b.talu_ns);
    }

    #[test]
    fn large_scan_misses_every_line() {
        // 64 MB of data: far beyond the 20 MB L3 — every line refetched on
        // every pass, confirming the analytical "streams pay full
        // bandwidth cost" assumption.
        let check = scan_trace_check(1 << 20, 64, 2);
        assert!(check.simulated_memory_fraction > 0.99, "{check:?}");
    }

    #[test]
    fn small_working_set_stays_cached() {
        // 16 KB working set: second pass hits L1, so across two passes at
        // most half the line fetches reach memory.
        let check = scan_trace_check(256, 64, 2);
        assert!(check.simulated_memory_fraction <= 0.5 + 1e-9, "{check:?}");
        assert!(check.simulated_avg_latency_ns < 10.0);
    }
}
