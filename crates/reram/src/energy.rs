//! Energy accounting for PIM operations.
//!
//! The absolute constants follow Table 1 (ReRAM write energy ≈ 10⁻¹³ J/bit)
//! and ISAAC-class estimates for analog compute; the *relative* picture —
//! writes are orders of magnitude more expensive than reads, and result
//! movement is cheap compared to moving raw vectors to the CPU — is what
//! the experiments depend on.

/// Energy cost constants (joules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy to program one cell bit (Table 1, ReRAM: ~1e-13 J/bit).
    pub write_j_per_bit: f64,
    /// Energy of one analog read cycle of one active crossbar
    /// (DAC + array + S&H + ADC share, ISAAC-class: ~1e-10 J).
    pub cycle_j_per_crossbar: f64,
    /// Energy to move one byte over the internal bus (~1e-12 J/B).
    pub bus_j_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            write_j_per_bit: 1e-13,
            cycle_j_per_crossbar: 1e-10,
            bus_j_per_byte: 1e-12,
        }
    }
}

/// Accumulated energy of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Programming (write) energy in joules.
    pub write_j: f64,
    /// Analog compute energy in joules.
    pub compute_j: f64,
    /// Internal bus transfer energy in joules.
    pub bus_j: f64,
}

impl EnergyReport {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.write_j + self.compute_j + self.bus_j
    }

    /// Adds programming energy for `cell_writes` cells of `cell_bits` each.
    pub fn charge_writes(&mut self, model: &EnergyModel, cell_writes: u64, cell_bits: u32) {
        self.write_j += model.write_j_per_bit * cell_writes as f64 * f64::from(cell_bits);
    }

    /// Adds compute energy for `cycles` analog cycles across
    /// `active_crossbars` crossbars.
    pub fn charge_compute(&mut self, model: &EnergyModel, cycles: u64, active_crossbars: usize) {
        self.compute_j += model.cycle_j_per_crossbar * cycles as f64 * active_crossbars as f64;
    }

    /// Adds bus energy for moving `bytes`.
    pub fn charge_bus(&mut self, model: &EnergyModel, bytes: u64) {
        self.bus_j += model.bus_j_per_byte * bytes as f64;
    }

    /// Merges another report.
    pub fn add(&mut self, other: &EnergyReport) {
        self.write_j += other.write_j;
        self.compute_j += other.compute_j;
        self.bus_j += other.bus_j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let m = EnergyModel::default();
        let mut r = EnergyReport::default();
        r.charge_writes(&m, 1000, 2);
        r.charge_compute(&m, 10, 5);
        r.charge_bus(&m, 1_000_000);
        assert!((r.write_j - 1e-13 * 2000.0).abs() < 1e-20);
        assert!((r.compute_j - 1e-10 * 50.0).abs() < 1e-20);
        assert!((r.bus_j - 1e-12 * 1e6).abs() < 1e-20);
        assert!((r.total_j() - (r.write_j + r.compute_j + r.bus_j)).abs() < 1e-20);
    }

    #[test]
    fn writes_dominate_reads_per_bit() {
        // The relative ordering Section V-C relies on: programming is far
        // more expensive than computing on programmed data.
        let m = EnergyModel::default();
        let mut program = EnergyReport::default();
        program.charge_writes(&m, 65536, 2); // one full 256×256 crossbar
        let mut compute = EnergyReport::default();
        compute.charge_compute(&m, 16, 1); // one 32-bit query pass
        assert!(program.total_j() > 5.0 * compute.total_j());
    }

    #[test]
    fn add_merges_reports() {
        let m = EnergyModel::default();
        let mut a = EnergyReport::default();
        a.charge_bus(&m, 100);
        let mut b = EnergyReport::default();
        b.charge_bus(&m, 300);
        a.add(&b);
        assert!((a.bus_j - 1e-12 * 400.0).abs() < 1e-24);
    }
}
