//! A ReRAM bank: PIM array + buffer array + memory array behind one
//! controller (Fig. 4b).
//!
//! The controller coordinates the dataflow the paper describes: the PIM
//! array computes dot-product batches, results land in the buffer array so
//! the CPU can drain them without stalling PIM, and pre-computed Φ values
//! live in the memory array. `simpim-core`'s executor drives exactly this
//! interface.

use crate::array::{
    BufferArray, MemoryArray, PassResult, PimArray, ProgramReport, Read, RegionId, RemapReport,
    ScrubReport,
};
use crate::config::{AccWidth, PimConfig};
use crate::error::ReRamError;
use crate::faults::{BankLoss, CrossbarHealth, FaultConfig};

/// A ReRAM-based memory bank with in-situ processing.
#[derive(Debug, Clone)]
pub struct ReRamBank {
    pim: PimArray,
    buffer: BufferArray,
    memory: MemoryArray,
    loss: BankLoss,
    dispatches: u64,
}

impl ReRamBank {
    /// Builds a bank from the platform configuration.
    pub fn new(cfg: PimConfig) -> Result<Self, ReRamError> {
        Ok(Self {
            pim: PimArray::new(cfg)?,
            buffer: BufferArray::new(cfg.buffer_bytes),
            memory: MemoryArray::new(cfg.memory_bytes),
            loss: BankLoss::Alive,
            dispatches: 0,
        })
    }

    /// Fail-stops the bank: every subsequent programming or dot-product
    /// command returns [`ReRamError::BankLost`]. The injection half of the
    /// [`BankLoss`] fault class; the stored data is considered gone, so
    /// recovery means re-programming onto a spare bank.
    pub fn kill(&mut self) {
        self.loss = BankLoss::Lost;
        simpim_obs::metrics::counter_add("simpim.reram.bank.kills", 1);
    }

    /// Revives a killed bank (test/maintenance hook). The programmed state
    /// is still in the simulator, so a heal models a transient controller
    /// outage rather than data loss; production recovery paths should
    /// re-replicate instead of healing.
    pub fn heal(&mut self) {
        self.loss = BankLoss::Alive;
    }

    /// Whether the bank is fail-stopped (killed or past its deterministic
    /// loss point).
    pub fn is_lost(&self) -> bool {
        self.loss.is_lost()
    }

    /// Dot-product dispatches served since the bank was built.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Gate shared by every controller command: fail if the bank is lost,
    /// and trip the deterministic [`FaultConfig::bank_loss_after_dispatches`]
    /// loss point if this bank has reached it.
    fn ensure_alive(&mut self) -> Result<(), ReRamError> {
        if let Some(faults) = self.pim.fault_config() {
            if faults.bank_loss_after_dispatches > 0
                && self.dispatches >= faults.bank_loss_after_dispatches
                && !self.loss.is_lost()
            {
                self.kill();
            }
        }
        if self.loss.is_lost() {
            return Err(ReRamError::BankLost);
        }
        Ok(())
    }

    /// The platform configuration.
    pub fn config(&self) -> &PimConfig {
        self.pim.config()
    }

    /// The PIM array (read access for inspection).
    pub fn pim(&self) -> &PimArray {
        &self.pim
    }

    /// The PIM array (mutable access, e.g. for attaching fault models).
    pub fn pim_mut(&mut self) -> &mut PimArray {
        &mut self.pim
    }

    /// Attaches a deterministic fault model to the PIM array. See
    /// [`PimArray::enable_faults`].
    pub fn enable_faults(&mut self, faults: FaultConfig) -> Result<(), ReRamError> {
        self.pim.enable_faults(faults)
    }

    /// Scrubs one region against its fault map. See
    /// [`PimArray::scrub_region`].
    pub fn scrub_region(&mut self, region: RegionId) -> Result<ScrubReport, ReRamError> {
        self.pim.scrub_region(region)
    }

    /// Remaps a region's dead crossbars onto spare capacity. See
    /// [`PimArray::remap_dead`].
    pub fn remap_dead(&mut self, region: RegionId) -> Result<RemapReport, ReRamError> {
        self.pim.remap_dead(region)
    }

    /// Worst-case health of the crossbars serving one object. See
    /// [`PimArray::object_health`].
    pub fn object_health(
        &self,
        region: RegionId,
        obj: usize,
    ) -> Result<CrossbarHealth, ReRamError> {
        self.pim.object_health(region, obj)
    }

    /// The memory array, for staging pre-computed Φ values.
    pub fn memory_mut(&mut self) -> &mut MemoryArray {
        &mut self.memory
    }

    /// The memory array (read access).
    pub fn memory(&self) -> &MemoryArray {
        &self.memory
    }

    /// The buffer array (read access).
    pub fn buffer(&self) -> &BufferArray {
        &self.buffer
    }

    /// Programs a region (offline stage). See
    /// [`PimArray::program_region`].
    pub fn program_region(
        &mut self,
        flat: &[u32],
        n: usize,
        s: usize,
        operand_bits: u32,
    ) -> Result<ProgramReport, ReRamError> {
        self.ensure_alive()?;
        self.pim.program_region(flat, n, s, operand_bits)
    }

    /// Opens a streamed region (no rows yet). See
    /// [`PimArray::begin_region_streamed`].
    pub fn begin_region_streamed(
        &mut self,
        capacity: usize,
        s: usize,
        operand_bits: u32,
    ) -> Result<ProgramReport, ReRamError> {
        self.ensure_alive()?;
        self.pim.begin_region_streamed(capacity, s, operand_bits)
    }

    /// Streams one block of the initial matrix into an open region. See
    /// [`PimArray::fill_rows`].
    pub fn fill_rows(
        &mut self,
        region: RegionId,
        flat: &[u32],
    ) -> Result<ProgramReport, ReRamError> {
        self.ensure_alive()?;
        self.pim.fill_rows(region, flat)
    }

    /// Seals a streamed region. See [`PimArray::finish_region`].
    pub fn finish_region(&mut self, region: RegionId) -> Result<(), ReRamError> {
        self.ensure_alive()?;
        self.pim.finish_region(region)
    }

    /// Appends objects into a region's spare rows (online insert). See
    /// [`PimArray::append_rows`].
    pub fn append_rows(
        &mut self,
        region: RegionId,
        flat: &[u32],
    ) -> Result<ProgramReport, ReRamError> {
        self.ensure_alive()?;
        let rep = self.pim.append_rows(region, flat)?;
        simpim_obs::metrics::counter_add("simpim.reram.bank.appends", 1);
        Ok(rep)
    }

    /// Reprograms already-programmed objects of a region in place. See
    /// [`PimArray::rewrite_rows`].
    pub fn rewrite_rows(
        &mut self,
        region: RegionId,
        at: usize,
        flat: &[u32],
    ) -> Result<ProgramReport, ReRamError> {
        self.ensure_alive()?;
        self.pim.rewrite_rows(region, at, flat)
    }

    /// Spare object slots still unprogrammed in a region. See
    /// [`PimArray::region_capacity`] and [`PimArray::region_shape`].
    pub fn region_spare(&self, region: RegionId) -> Result<usize, ReRamError> {
        let (n, _, _) = self.pim.region_shape(region)?;
        Ok(self.pim.region_capacity(region)? - n)
    }

    /// Issues the passes of a coalesced batch (see [`PimArray::read`])
    /// and stages each result in the buffer array. The controller
    /// dispatches them one by one in the order given: a bank that
    /// fail-stops at pass `i` has served, counted and charged the passes
    /// before it, and their results come back beside
    /// [`ReRamError::BankLost`]. A pass the array itself refuses (an
    /// unknown or mid-fill region, a query of the wrong length) fails the
    /// batch with every live dispatch counted and nothing run or charged.
    /// A [`Read::Coarse`] read is dispatched, staged, metered and charged
    /// as the fine one; a result whose pass read coarse holds upper bounds
    /// of its dot products and says so.
    pub fn read(
        &mut self,
        passes: &[(RegionId, &[u32])],
        acc: AccWidth,
        read: Read,
    ) -> (Vec<PassResult>, Result<(), ReRamError>) {
        let mut served = passes;
        let mut lost = Ok(());
        for i in 0..passes.len() {
            if let Err(e) = self.ensure_alive() {
                (served, lost) = (&passes[..i], Err(e));
                break;
            }
            self.dispatches += 1;
        }
        let open =
            |region: RegionId| simpim_obs::span!("reram.bank.dot_batch", region = region.0 as u64);
        // The first pass's span opens before the array runs: it covers the
        // host's shared read, and all of a single call as it always did.
        let mut first = served.first().map(|pass| open(pass.0));
        let reads = match self.pim.read(served, acc, read) {
            Ok(reads) => reads,
            Err(refused) => return (Vec::new(), Err(refused)),
        };
        for (&(region, _), pass) in served.iter().zip(&reads) {
            let (values, timing) = (&pass.values, pass.timing);
            let mut span = first.take().unwrap_or_else(|| open(region));
            let result_bytes = values.len() as u64 * acc.bytes();
            self.buffer.stage(result_bytes);
            // One registry touch per *pass*: dispatch count, gather-tree
            // latency distribution, and buffer pressure.
            simpim_obs::metrics::counter_add("simpim.reram.bank.dispatches", 1);
            simpim_obs::metrics::counter_add("simpim.reram.bank.result_bytes", result_bytes);
            simpim_obs::metrics::histogram_record(
                "simpim.reram.bank.gather_ns",
                timing.gather_ns as u64,
            );
            simpim_obs::metrics::gauge_set(
                "simpim.reram.bank.buffer_high_water",
                self.buffer.high_water() as f64,
            );
            span.record_all([
                ("objects", values.len() as f64),
                ("gather_ns", timing.gather_ns),
                ("total_ns", timing.total_ns()),
            ]);
        }
        (reads, lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrossbarConfig;

    /// One fine pass of `query` through `region`.
    fn dot(
        bank: &mut ReRamBank,
        region: RegionId,
        query: &[u32],
    ) -> Result<PassResult, ReRamError> {
        let (mut out, lost) = bank.read(&[(region, query)], AccWidth::U64, Read::Fine);
        lost.map(|()| out.pop().expect("one result per pass"))
    }

    fn cfg() -> PimConfig {
        PimConfig {
            crossbar: CrossbarConfig {
                size: 8,
                cell_bits: 2,
                dac_bits: 2,
                adc_bits: 12,
                ..Default::default()
            },
            num_crossbars: 16,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_program_and_query() {
        let mut bank = ReRamBank::new(cfg()).unwrap();
        let rep = bank.program_region(&[1, 2, 3, 4, 5, 6], 2, 3, 4).unwrap();
        let out = dot(&mut bank, rep.region, &[1, 1, 1]).unwrap();
        assert_eq!(out.values, vec![6, 15]);
        assert!(out.timing.total_ns() > 0.0);
        assert_eq!(bank.buffer().high_water(), 16);
    }

    #[test]
    fn memory_array_reachable() {
        let mut bank = ReRamBank::new(cfg()).unwrap();
        bank.memory_mut().store(1024).unwrap();
        assert_eq!(bank.memory().used(), 1024);
    }

    #[test]
    fn capacity_and_append_round_trip() {
        let mut bank = ReRamBank::new(cfg()).unwrap();
        let rep = bank.begin_region_streamed(4, 3, 4).unwrap();
        bank.fill_rows(rep.region, &[1, 2, 3, 4, 5, 6]).unwrap();
        bank.finish_region(rep.region).unwrap();
        assert_eq!(bank.region_spare(rep.region).unwrap(), 2);
        bank.append_rows(rep.region, &[7, 8, 9]).unwrap();
        assert_eq!(bank.region_spare(rep.region).unwrap(), 1);
        let out = dot(&mut bank, rep.region, &[1, 1, 1]).unwrap();
        assert_eq!(out.values, vec![6, 15, 24]);
    }

    #[test]
    fn killed_bank_fail_stops_until_healed() {
        let mut bank = ReRamBank::new(cfg()).unwrap();
        let rep = bank.program_region(&[1, 2, 3, 4, 5, 6], 2, 3, 4).unwrap();
        assert!(!bank.is_lost());
        bank.kill();
        assert!(bank.is_lost());
        assert_eq!(
            dot(&mut bank, rep.region, &[1, 1, 1]),
            Err(ReRamError::BankLost)
        );
        assert_eq!(
            bank.append_rows(rep.region, &[7, 8, 9]),
            Err(ReRamError::BankLost)
        );
        assert_eq!(
            bank.program_region(&[1, 2, 3], 1, 3, 4),
            Err(ReRamError::BankLost)
        );
        bank.heal();
        let out = dot(&mut bank, rep.region, &[1, 1, 1]).unwrap();
        assert_eq!(out.values, vec![6, 15]);
    }

    #[test]
    fn deterministic_bank_loss_trips_at_the_configured_dispatch() {
        let mut bank = ReRamBank::new(cfg()).unwrap();
        let rep = bank.program_region(&[1, 2, 3, 4, 5, 6], 2, 3, 4).unwrap();
        bank.pim_mut()
            .enable_faults(crate::faults::FaultConfig {
                bank_loss_after_dispatches: 2,
                ..Default::default()
            })
            .unwrap();
        for _ in 0..2 {
            dot(&mut bank, rep.region, &[1, 1, 1]).unwrap();
        }
        assert_eq!(bank.dispatches(), 2);
        assert_eq!(
            dot(&mut bank, rep.region, &[1, 1, 1]),
            Err(ReRamError::BankLost)
        );
        assert!(bank.is_lost());
    }

    #[test]
    fn queries_require_programming() {
        let mut bank = ReRamBank::new(cfg()).unwrap();
        assert!(dot(&mut bank, RegionId(0), &[1]).is_err());
    }
}
