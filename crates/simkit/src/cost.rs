//! Analytical host cost model: [`OpCounters`] → [`TimeBreakdown`].
//!
//! The mapping mirrors how the paper's profiling attributes time to the
//! Eq. 1 components:
//!
//! * `T_c` — retired simple ops at the sustained issue width;
//! * `T_cache` — streamed bytes at the single-thread streaming bandwidth
//!   plus one DRAM round-trip per random fetch, plus write traffic at the
//!   write bandwidth. This is the data-transfer cost PIM attacks;
//! * `T_ALU` — long-latency divide/sqrt at their pipeline latencies;
//! * `T_Br` — branches × misprediction rate × penalty;
//! * `T_Fe` — a fixed fraction of `T_c` for fetch/decode overhead.

use crate::breakdown::TimeBreakdown;
use crate::constants;
use crate::counters::OpCounters;

/// Host-side latency/bandwidth parameters (defaults = the paper's machine,
/// see [`crate::constants`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostParams {
    /// Clock period in nanoseconds.
    pub cycle_ns: f64,
    /// Sustained simple ops per cycle.
    pub issue_width: f64,
    /// Divide latency in cycles.
    pub div_latency_cycles: f64,
    /// Square-root latency in cycles.
    pub sqrt_latency_cycles: f64,
    /// Branch misprediction penalty in cycles.
    pub branch_penalty_cycles: f64,
    /// Fraction of counted branches that mispredict.
    pub mispredict_rate: f64,
    /// Front-end overhead as a fraction of `T_c`.
    pub frontend_frac: f64,
    /// Sequential read bandwidth in GB/s.
    pub stream_bandwidth_gbps: f64,
    /// Random access latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// Write bandwidth in GB/s.
    pub write_bandwidth_gbps: f64,
}

impl Default for HostParams {
    fn default() -> Self {
        Self {
            cycle_ns: constants::CYCLE_NS,
            issue_width: constants::ISSUE_WIDTH,
            div_latency_cycles: constants::DIV_LATENCY_CYCLES,
            sqrt_latency_cycles: constants::SQRT_LATENCY_CYCLES,
            branch_penalty_cycles: constants::BRANCH_PENALTY_CYCLES,
            mispredict_rate: constants::MISPREDICT_RATE,
            frontend_frac: constants::FRONTEND_OVERHEAD_FRAC,
            stream_bandwidth_gbps: constants::STREAM_BANDWIDTH_GBPS,
            mem_latency_ns: constants::DRAM_LATENCY_NS,
            write_bandwidth_gbps: constants::WRITE_BANDWIDTH_GBPS,
        }
    }
}

impl HostParams {
    /// Converts counters into the Eq. 1 breakdown.
    pub fn evaluate(&self, c: &OpCounters) -> TimeBreakdown {
        let simple_ops = (c.arith + c.mul + c.cmp + c.branch) as f64;
        let tc_ns = simple_ops / self.issue_width * self.cycle_ns;

        let tcache_ns = c.bytes_streamed as f64 / self.stream_bandwidth_gbps
            + c.random_fetches as f64 * self.mem_latency_ns
            + c.bytes_written as f64 / self.write_bandwidth_gbps;

        let talu_ns = (c.div as f64 * self.div_latency_cycles
            + c.sqrt as f64 * self.sqrt_latency_cycles)
            * self.cycle_ns;

        let tbr_ns =
            c.branch as f64 * self.mispredict_rate * self.branch_penalty_cycles * self.cycle_ns;

        let tfe_ns = tc_ns * self.frontend_frac;

        TimeBreakdown {
            tc_ns,
            tcache_ns,
            talu_ns,
            tbr_ns,
            tfe_ns,
        }
    }

    /// Pure data-transfer time for `bytes` of sequential traffic — the
    /// `T_cost` unit of Eq. 13's execution-plan model.
    pub fn stream_time_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.stream_bandwidth_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_units_line_up() {
        // bytes / GB/s = ns exactly: 10 GB at 10 GB/s = 1 s = 1e9 ns.
        let p = HostParams::default();
        let t = p.stream_time_ns(10_000_000_000);
        assert!((t - 1e9).abs() < 1.0);
    }

    #[test]
    fn linear_scan_is_memory_bound() {
        // A Standard-kNN-style scan: per object, stream d·8 bytes and do
        // 3d flops + 1 compare. The paper's Fig. 5 observes 65–83% of time
        // in T_cache — the model must land in that band.
        let p = HostParams::default();
        let (n, d) = (100_000u64, 420u64);
        let mut c = OpCounters::new();
        for _ in 0..n {
            c.euclidean_kernel(d, d * 8);
            c.prune_test();
        }
        let b = p.evaluate(&c);
        let frac = b.tcache_fraction();
        assert!((0.6..=0.85).contains(&frac), "tcache fraction {frac}");
    }

    #[test]
    fn divisions_surface_in_talu() {
        let p = HostParams::default();
        let mut c = OpCounters::new();
        c.div = 1000;
        let b = p.evaluate(&c);
        assert!(b.talu_ns > 0.0);
        assert_eq!(b.tc_ns, 0.0);
        assert!((b.talu_ns - 1000.0 * 20.0 * constants::CYCLE_NS).abs() < 1e-9);
    }

    #[test]
    fn branches_cost_both_tc_and_tbr() {
        let p = HostParams::default();
        let mut c = OpCounters::new();
        c.branch = 10_000;
        let b = p.evaluate(&c);
        assert!(b.tbr_ns > 0.0);
        assert!(b.tc_ns > 0.0);
        // Expected misprediction cost: n · rate · penalty · cycle.
        let expect = 10_000.0 * 0.03 * 16.0 * constants::CYCLE_NS;
        assert!((b.tbr_ns - expect).abs() < 1e-6);
    }

    #[test]
    fn random_fetches_pay_latency() {
        let p = HostParams::default();
        let mut seq = OpCounters::new();
        seq.stream(64 * 1000);
        let mut rnd = OpCounters::new();
        for _ in 0..1000 {
            rnd.random_fetch(64);
        }
        assert!(p.evaluate(&rnd).tcache_ns > 10.0 * p.evaluate(&seq).tcache_ns);
    }

    #[test]
    fn frontend_tracks_compute() {
        let p = HostParams::default();
        let mut c = OpCounters::new();
        c.arith = 1_000_000;
        let b = p.evaluate(&c);
        assert!((b.tfe_ns / b.tc_ns - p.frontend_frac).abs() < 1e-12);
    }

    #[test]
    fn writes_slower_than_reads() {
        let p = HostParams::default();
        let mut r = OpCounters::new();
        r.stream(1_000_000);
        let mut w = OpCounters::new();
        w.write(1_000_000);
        assert!(p.evaluate(&w).tcache_ns > p.evaluate(&r).tcache_ns);
    }
}
