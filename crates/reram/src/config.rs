//! Hardware configuration: crossbar geometry and the PIM-array platform of
//! the paper's Table 5, plus the NVM device characteristics of Table 1.

use crate::error::ReRamError;

/// Geometry and device parameters of one ReRAM crossbar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Crossbar side length `m` (the paper uses 256×256).
    pub size: usize,
    /// Bits per cell `h` (the paper uses 2-bit precision cells).
    pub cell_bits: u32,
    /// Input DAC resolution in bits per cycle (2 in the running examples of
    /// Fig. 2: inputs stream through the DAC two bits at a time).
    pub dac_bits: u32,
    /// ADC resolution in bits. It must resolve the worst-case per-cycle
    /// analog sum `m · (2^h − 1) · (2^dac − 1)` ([`CrossbarConfig::validate`]
    /// refuses less).
    pub adc_bits: u32,
    /// Crossbar read latency in nanoseconds (Table 5: 29.31 ns).
    pub read_ns: f64,
    /// Crossbar write (programming) latency in nanoseconds (Table 5: 50.88 ns).
    pub write_ns: f64,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        Self {
            size: 256,
            cell_bits: 2,
            dac_bits: 2,
            adc_bits: 12, // 256 · 3 · 3 = 2304 < 2^12
            read_ns: 29.31,
            write_ns: 50.88,
        }
    }
}

impl CrossbarConfig {
    /// Validates the geometry.
    pub fn validate(&self) -> Result<(), ReRamError> {
        if self.size == 0 {
            return Err(ReRamError::InvalidConfig {
                what: "crossbar size must be non-zero",
            });
        }
        if self.cell_bits == 0 || self.cell_bits > 8 {
            return Err(ReRamError::InvalidConfig {
                what: "cell_bits must be in 1..=8",
            });
        }
        if self.dac_bits == 0 || self.dac_bits > 16 {
            return Err(ReRamError::InvalidConfig {
                what: "dac_bits must be in 1..=16",
            });
        }
        // The array computes exact dot products, so an ADC that could clip
        // a full column's sum would be answered exactly instead; refuse it.
        if !self.adc_covers_worst_case() {
            return Err(ReRamError::InvalidConfig {
                what: "adc_bits must resolve the worst-case column sum m·(2^h − 1)·(2^dac − 1)",
            });
        }
        Ok(())
    }

    /// `true` when the ADC resolves the worst-case per-cycle analog sum
    /// `m · (2^h − 1) · (2^dac − 1)` without clipping.
    pub fn adc_covers_worst_case(&self) -> bool {
        let worst =
            (self.size as u64) * ((1u64 << self.cell_bits) - 1) * ((1u64 << self.dac_bits) - 1);
        self.adc_bits < 64 && worst < (1u64 << self.adc_bits)
    }

    /// Number of adjacent cells one `b`-bit stored operand occupies
    /// (`⌈b/h⌉`, Fig. 2).
    #[inline]
    pub fn cells_per_operand(&self, operand_bits: u32) -> usize {
        operand_bits.div_ceil(self.cell_bits) as usize
    }

    /// How many `b`-bit operands fit in one crossbar row
    /// (`m·h/b` in Theorem 4's proof, floored).
    #[inline]
    pub fn operands_per_row(&self, operand_bits: u32) -> usize {
        self.size / self.cells_per_operand(operand_bits)
    }

    /// Input streaming cycles for a `b`-bit multiplicand (`⌈b/dac⌉`).
    #[inline]
    pub fn input_cycles(&self, input_bits: u32) -> u64 {
        u64::from(input_bits.div_ceil(self.dac_bits))
    }

    /// Total cell count of one crossbar.
    #[inline]
    pub fn cells(&self) -> usize {
        self.size * self.size
    }

    /// Raw storage capacity of one crossbar in bits.
    #[inline]
    pub fn capacity_bits(&self) -> u64 {
        (self.cells() as u64) * u64::from(self.cell_bits)
    }
}

/// Width of the accumulator collecting PIM results. The paper keeps the
/// least-significant 64 bits for integer workloads and 32 bits for binary
/// codes (Section VI-B); accumulation wraps at the chosen width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccWidth {
    /// Accumulate into the least-significant 32 bits.
    U32,
    /// Accumulate into the least-significant 64 bits.
    U64,
}

impl AccWidth {
    /// Result width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            AccWidth::U32 => 32,
            AccWidth::U64 => 64,
        }
    }

    /// Result width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        u64::from(self.bits()) / 8
    }

    /// Wraps a full-precision accumulation to this width.
    #[inline]
    pub fn wrap(self, v: u128) -> u64 {
        match self {
            AccWidth::U32 => (v as u64) & 0xFFFF_FFFF,
            AccWidth::U64 => v as u64,
        }
    }
}

/// Platform configuration of the ReRAM-based memory (Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimConfig {
    /// Per-crossbar parameters.
    pub crossbar: CrossbarConfig,
    /// Crossbar budget `C` of the PIM array. The default models the paper's
    /// 2 GB PIM array: `2 GiB / (256·256·2 bit)` = 131 072 crossbars.
    pub num_crossbars: usize,
    /// Buffer array (eDRAM) capacity in bytes (Table 5: 16 MB).
    pub buffer_bytes: u64,
    /// Buffer array access latency in nanoseconds (eDRAM, ~1 ns class).
    pub buffer_ns: f64,
    /// Memory array capacity in bytes (Table 5: 14 GB ReRAM).
    pub memory_bytes: u64,
    /// Internal bus bandwidth in GB/s (Table 5: 50 GB/s). PIM-internal data
    /// movement (crossbar → buffer) rides this bus.
    pub internal_bus_gbps: f64,
}

impl Default for PimConfig {
    fn default() -> Self {
        let crossbar = CrossbarConfig::default();
        Self {
            crossbar,
            num_crossbars: (2u64 * 1024 * 1024 * 1024 * 8 / crossbar.capacity_bits()) as usize,
            buffer_bytes: 16 * 1024 * 1024,
            buffer_ns: 1.0,
            memory_bytes: 14u64 * 1024 * 1024 * 1024,
            internal_bus_gbps: 50.0,
        }
    }
}

impl PimConfig {
    /// Validates the whole platform.
    pub fn validate(&self) -> Result<(), ReRamError> {
        self.crossbar.validate()?;
        if self.num_crossbars == 0 {
            return Err(ReRamError::InvalidConfig {
                what: "num_crossbars must be non-zero",
            });
        }
        if self.internal_bus_gbps <= 0.0 || self.internal_bus_gbps.is_nan() {
            return Err(ReRamError::InvalidConfig {
                what: "internal bus bandwidth must be positive",
            });
        }
        if self.buffer_ns < 0.0 || self.buffer_ns.is_nan() {
            return Err(ReRamError::InvalidConfig {
                what: "buffer latency must be non-negative",
            });
        }
        Ok(())
    }

    /// Total PIM-array storage capacity in bits.
    pub fn pim_capacity_bits(&self) -> u64 {
        self.num_crossbars as u64 * self.crossbar.capacity_bits()
    }

    /// Seconds needed to move `bytes` over the internal bus.
    pub fn bus_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.internal_bus_gbps * 1e9)
    }
}

/// Device characteristics of representative NVM technologies (Table 1).
/// Exposed for documentation, the `table01` bench target and sanity tests.
pub mod nvm_table {
    /// One row of Table 1.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct NvmCharacteristics {
        /// Technology name.
        pub name: &'static str,
        /// Whether the technology loses state on power-off.
        pub volatile: bool,
        /// Write-endurance range (cycles per cell).
        pub endurance_writes: (f64, f64),
        /// Read latency range in nanoseconds.
        pub read_latency_ns: (f64, f64),
        /// Write latency range in nanoseconds.
        pub write_latency_ns: (f64, f64),
        /// Cell size range in F².
        pub cell_size_f2: (f64, f64),
        /// Write energy in joules per bit.
        pub write_energy_j_per_bit: f64,
    }

    /// DRAM row.
    pub const DRAM: NvmCharacteristics = NvmCharacteristics {
        name: "DRAM",
        volatile: true,
        endurance_writes: (1e15, 1e15),
        read_latency_ns: (10.0, 10.0),
        write_latency_ns: (10.0, 10.0),
        cell_size_f2: (60.0, 100.0),
        write_energy_j_per_bit: 1e-14,
    };

    /// ReRAM row.
    pub const RERAM: NvmCharacteristics = NvmCharacteristics {
        name: "ReRAM",
        volatile: false,
        endurance_writes: (1e8, 1e11),
        read_latency_ns: (10.0, 10.0),
        write_latency_ns: (50.0, 50.0),
        cell_size_f2: (4.0, 10.0),
        write_energy_j_per_bit: 1e-13,
    };

    /// PCM row.
    pub const PCM: NvmCharacteristics = NvmCharacteristics {
        name: "PCM",
        volatile: false,
        endurance_writes: (1e8, 1e9),
        read_latency_ns: (20.0, 60.0),
        write_latency_ns: (20.0, 150.0),
        cell_size_f2: (4.0, 12.0),
        write_energy_j_per_bit: 1e-11,
    };

    /// STT-RAM row.
    pub const STT_RAM: NvmCharacteristics = NvmCharacteristics {
        name: "STT-RAM",
        volatile: false,
        endurance_writes: (1e12, 1e15),
        read_latency_ns: (2.0, 35.0),
        write_latency_ns: (3.0, 50.0),
        cell_size_f2: (6.0, 50.0),
        write_energy_j_per_bit: 1e-13,
    };

    /// All rows of Table 1.
    pub const ALL: [NvmCharacteristics; 4] = [DRAM, RERAM, PCM, STT_RAM];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table5() {
        let cfg = PimConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.crossbar.size, 256);
        assert_eq!(cfg.crossbar.cell_bits, 2);
        assert_eq!(cfg.num_crossbars, 131_072); // "default 131072 crossbars in PIM array"
        assert_eq!(cfg.buffer_bytes, 16 * 1024 * 1024);
        assert!((cfg.crossbar.read_ns - 29.31).abs() < 1e-9);
        assert!((cfg.crossbar.write_ns - 50.88).abs() < 1e-9);
        // 2 GB PIM array
        assert_eq!(cfg.pim_capacity_bits(), 2 * 1024 * 1024 * 1024 * 8);
    }

    #[test]
    fn operand_packing_matches_theorem4_quantities() {
        let xb = CrossbarConfig::default();
        // b = 32, h = 2 → 16 cells/operand → 256/16 = 16 operands/row = m·h/b.
        assert_eq!(xb.cells_per_operand(32), 16);
        assert_eq!(xb.operands_per_row(32), 16);
        assert_eq!(
            xb.operands_per_row(32),
            xb.size * xb.cell_bits as usize / 32
        );
        // Fig. 2 example: 6-bit data on 2-bit cells → 3 cells.
        assert_eq!(xb.cells_per_operand(6), 3);
    }

    #[test]
    fn input_cycles_rounds_up() {
        let xb = CrossbarConfig::default();
        assert_eq!(xb.input_cycles(6), 3);
        assert_eq!(xb.input_cycles(5), 3);
        assert_eq!(xb.input_cycles(1), 1);
        assert_eq!(xb.input_cycles(32), 16);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let xb = CrossbarConfig {
            size: 0,
            ..Default::default()
        };
        assert!(xb.validate().is_err());
        let xb = CrossbarConfig {
            cell_bits: 0,
            ..Default::default()
        };
        assert!(xb.validate().is_err());
        // Below cell_bits + dac_bits.
        let xb = CrossbarConfig {
            adc_bits: 3,
            ..Default::default()
        };
        assert!(xb.validate().is_err());
        // Undersized for full columns: 256 · 3 · 3 = 2304 ≥ 2^8.
        let xb = CrossbarConfig {
            adc_bits: 8,
            ..Default::default()
        };
        assert!(!xb.adc_covers_worst_case());
        assert!(xb.validate().is_err());
        assert!(CrossbarConfig::default().adc_covers_worst_case());
        let xb = CrossbarConfig {
            adc_bits: 64,
            ..Default::default()
        };
        assert!(xb.validate().is_err());
        let cfg = PimConfig {
            num_crossbars: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn acc_width_wraps() {
        assert_eq!(AccWidth::U32.wrap(0x1_2345_6789), 0x2345_6789);
        assert_eq!(AccWidth::U64.wrap(u128::from(u64::MAX) + 5), 4);
        assert_eq!(AccWidth::U32.bits(), 32);
        assert_eq!(AccWidth::U64.bytes(), 8);
    }

    #[test]
    fn bus_seconds_scales_linearly() {
        let cfg = PimConfig::default();
        let t1 = cfg.bus_seconds(50_000_000_000);
        assert!((t1 - 1.0).abs() < 1e-9); // 50 GB over 50 GB/s = 1 s
    }

    #[test]
    fn nvm_table_rows() {
        assert_eq!(nvm_table::ALL.len(), 4);
        let volatile: Vec<bool> = nvm_table::ALL.iter().map(|r| r.volatile).collect();
        assert_eq!(volatile, vec![true, false, false, false]);
        // ReRAM write latency exceeds its read latency (why Fig. 17's
        // pre-processing is slower on PIM).
        assert!(nvm_table::RERAM.write_latency_ns.0 > nvm_table::RERAM.read_latency_ns.1);
    }
}
