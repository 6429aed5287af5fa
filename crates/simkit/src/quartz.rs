//! Quartz-style NVM delay injection.
//!
//! The paper uses Quartz (a software NVM performance emulator from HP) to
//! estimate end-to-end latency when main memory is ReRAM instead of DRAM.
//! Quartz works by injecting delays proportional to memory traffic into
//! each execution epoch; [`NvmEmulator`] does the analytical equivalent:
//! it rescales the memory-stall component of a [`TimeBreakdown`] by the
//! read/write latency ratios of Table 1 (ReRAM reads ≈ DRAM reads; ReRAM
//! writes ≈ 5× slower).

use crate::breakdown::TimeBreakdown;
use crate::constants;
use crate::cost::HostParams;
use crate::counters::OpCounters;

/// Delay-injection factors for a ReRAM (or other NVM) main memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmEmulator {
    /// Multiplier on read-side memory stall time.
    pub read_factor: f64,
    /// Multiplier on write-side memory stall time.
    pub write_factor: f64,
}

impl Default for NvmEmulator {
    fn default() -> Self {
        Self {
            read_factor: constants::NVM_READ_FACTOR,
            write_factor: constants::NVM_WRITE_FACTOR,
        }
    }
}

impl NvmEmulator {
    /// Evaluates counters under NVM main memory: like
    /// [`HostParams::evaluate`] but with the read/write stall components
    /// scaled by the injection factors.
    pub fn evaluate(&self, params: &HostParams, c: &OpCounters) -> TimeBreakdown {
        let mut b = params.evaluate(c);
        let read_ns = c.bytes_streamed as f64 / params.stream_bandwidth_gbps
            + c.random_fetches as f64 * params.mem_latency_ns;
        let write_ns = c.bytes_written as f64 / params.write_bandwidth_gbps;
        b.tcache_ns = read_ns * self.read_factor + write_ns * self.write_factor;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_unchanged_writes_slower() {
        let params = HostParams::default();
        let emu = NvmEmulator::default();

        let mut reads = OpCounters::new();
        reads.stream(1_000_000);
        let dram = params.evaluate(&reads);
        let nvm = emu.evaluate(&params, &reads);
        assert!((dram.tcache_ns - nvm.tcache_ns).abs() < 1e-9);

        let mut writes = OpCounters::new();
        writes.write(1_000_000);
        let dram_w = params.evaluate(&writes);
        let nvm_w = emu.evaluate(&params, &writes);
        assert!((nvm_w.tcache_ns / dram_w.tcache_ns - 5.0).abs() < 1e-9);
    }

    #[test]
    fn non_memory_components_untouched() {
        let params = HostParams::default();
        let emu = NvmEmulator::default();
        let mut c = OpCounters::new();
        c.arith = 1000;
        c.div = 10;
        c.branch = 100;
        let dram = params.evaluate(&c);
        let nvm = emu.evaluate(&params, &c);
        assert_eq!(dram.tc_ns, nvm.tc_ns);
        assert_eq!(dram.talu_ns, nvm.talu_ns);
        assert_eq!(dram.tbr_ns, nvm.tbr_ns);
        assert_eq!(dram.tfe_ns, nvm.tfe_ns);
    }

    #[test]
    fn custom_factors_apply() {
        let params = HostParams::default();
        let emu = NvmEmulator {
            read_factor: 2.0,
            write_factor: 1.0,
        };
        let mut c = OpCounters::new();
        c.stream(1_000_000);
        let nvm = emu.evaluate(&params, &c);
        let dram = params.evaluate(&c);
        assert!((nvm.tcache_ns / dram.tcache_ns - 2.0).abs() < 1e-9);
    }
}
