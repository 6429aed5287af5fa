//! Run reports: everything a figure needs from one algorithm execution.

use simpim_profiling::FunctionProfiler;
use simpim_reram::PimTiming;
use simpim_simkit::{HostParams, NvmEmulator, TimeBreakdown};

/// Which main-memory technology the host side runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Conventional architecture: DRAM main memory (the baselines).
    ConventionalDram,
    /// ReRAM-based memory with a PIM array (the `-PIM` variants): host
    /// traffic pays ReRAM latencies via the Quartz-style emulator, and the
    /// PIM array contributes its own latency.
    ReRamPim,
}

/// The measurable outcome of one algorithm run.
///
/// Deliberately **not** `Default`: a derived default left `architecture` as
/// `None`, which [`RunReport::host_breakdown`] silently treated as DRAM —
/// PIM runs accumulated through a defaulted report would lose their NVM
/// delay injection. Construct via [`RunReport::new`] instead.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-function operation counters (Section IV-B).
    pub profile: FunctionProfiler,
    /// Accumulated PIM-side latency (zero for baselines).
    pub pim: PimTiming,
    /// Which architecture the run models.
    pub architecture: Option<Architecture>,
}

impl RunReport {
    /// A fresh report for the given architecture.
    pub fn new(architecture: Architecture) -> Self {
        Self {
            profile: FunctionProfiler::new(),
            pim: PimTiming::default(),
            architecture: Some(architecture),
        }
    }

    /// Host-side Eq. 1 breakdown under `params`, applying Quartz delay
    /// injection when the run models ReRAM main memory.
    pub fn host_breakdown(&self, params: &HostParams) -> TimeBreakdown {
        debug_assert!(
            self.architecture.is_some(),
            "RunReport evaluated before an architecture was set; \
             construct reports with RunReport::new(architecture)"
        );
        let counters = self.profile.total_counters();
        match self.architecture {
            Some(Architecture::ReRamPim) => NvmEmulator::default().evaluate(params, &counters),
            _ => params.evaluate(&counters),
        }
    }

    /// End-to-end model time in nanoseconds: host breakdown plus PIM
    /// latency (the paper sums Quartz and NVSim outputs the same way).
    pub fn total_ns(&self, params: &HostParams) -> f64 {
        self.host_breakdown(params).total_ns() + self.pim.total_ns()
    }

    /// End-to-end model time in milliseconds.
    pub fn total_ms(&self, params: &HostParams) -> f64 {
        self.total_ns(params) / 1e6
    }

    /// Steady-state pipelined model time: the buffer array lets the CPU
    /// drain batch `t` while PIM computes batch `t+1` (Section III-A:
    /// "PIM array can work with CPU in parallel"), so across a long query
    /// stream the throughput-determining time is the *slower* of the two
    /// sides rather than their sum. The paper reports the conservative
    /// serial sum (as does [`RunReport::total_ns`]); this view quantifies
    /// the pipelining headroom in the `ablations` bench.
    pub fn total_ns_pipelined(&self, params: &HostParams) -> f64 {
        self.host_breakdown(params)
            .total_ns()
            .max(self.pim.total_ns())
    }

    /// Merges another report (e.g. per-query reports into a workload
    /// total). Architectures must match.
    pub fn merge(&mut self, other: &RunReport) {
        assert_eq!(
            self.architecture.or(other.architecture),
            other.architecture.or(self.architecture),
            "cannot merge runs from different architectures"
        );
        if self.architecture.is_none() {
            self.architecture = other.architecture;
        }
        self.profile.merge(&other.profile);
        self.pim.add(&other.pim);
    }
}

impl Architecture {
    /// Stable artifact identifier.
    pub fn as_str(&self) -> &'static str {
        match self {
            Architecture::ConventionalDram => "dram",
            Architecture::ReRamPim => "reram-pim",
        }
    }
}

impl simpim_obs::ToJson for Architecture {
    fn to_json(&self) -> simpim_obs::Json {
        simpim_obs::Json::Str(self.as_str().to_string())
    }
}

impl simpim_obs::ToJson for RunReport {
    fn to_json(&self) -> simpim_obs::Json {
        use simpim_obs::Json;
        Json::obj([
            ("architecture", self.architecture.to_json()),
            ("profile", self.profile.to_json()),
            ("pim", self.pim.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_simkit::OpCounters;

    #[test]
    fn totals_combine_host_and_pim() {
        let mut r = RunReport::new(Architecture::ReRamPim);
        let mut c = OpCounters::new();
        c.stream(1_000_000);
        r.profile.record("G", c);
        r.pim.bus_ns = 5000.0;
        let params = HostParams::default();
        let host = r.host_breakdown(&params).total_ns();
        assert!((r.total_ns(&params) - host - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn nvm_emulation_applies_only_to_pim_runs() {
        let params = HostParams::default();
        let mut c = OpCounters::new();
        c.write(1_000_000);
        let mut dram = RunReport::new(Architecture::ConventionalDram);
        dram.profile.record("f", c);
        let mut nvm = RunReport::new(Architecture::ReRamPim);
        nvm.profile.record("f", c);
        assert!(
            nvm.host_breakdown(&params).tcache_ns > 4.0 * dram.host_breakdown(&params).tcache_ns
        );
    }

    #[test]
    fn pipelined_time_is_the_slower_side() {
        let params = HostParams::default();
        let mut r = RunReport::new(Architecture::ReRamPim);
        let mut c = OpCounters::new();
        c.stream(1_000_000);
        r.profile.record("G", c);
        r.pim.bus_ns = 1e9; // PIM-bound workload
        assert!((r.total_ns_pipelined(&params) - 1e9).abs() < 1e-3);
        assert!(r.total_ns_pipelined(&params) < r.total_ns(&params));
        r.pim.bus_ns = 1.0; // host-bound workload
        let host = r.host_breakdown(&params).total_ns();
        assert!((r.total_ns_pipelined(&params) - host).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunReport::new(Architecture::ConventionalDram);
        let mut c = OpCounters::new();
        c.arith = 10;
        a.profile.record("f", c);
        let mut b = RunReport::new(Architecture::ConventionalDram);
        b.profile.record("f", c);
        b.pim.bus_ns = 1.0;
        a.merge(&b);
        assert_eq!(a.profile.get("f").unwrap().counters.arith, 20);
        assert_eq!(a.pim.bus_ns, 1.0);
    }

    #[test]
    #[should_panic(expected = "different architectures")]
    fn merge_rejects_mixed_architectures() {
        let mut a = RunReport::new(Architecture::ConventionalDram);
        let b = RunReport::new(Architecture::ReRamPim);
        a.merge(&b);
    }
}
