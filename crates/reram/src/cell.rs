//! A single ReRAM cell.
//!
//! A cell switches among `2^h` resistance levels, representing an `h`-bit
//! non-negative integer (Section II-A). Programming (writing) a cell wears
//! it out; Table 1 bounds ReRAM endurance at 10⁸–10¹¹ writes, which is why
//! Section V-C compresses datasets instead of re-programming crossbars.
//!
//! Part of the unit-level test oracle ([`crate::crossbar`]), compiled only
//! under test.
#![cfg(test)]

use crate::error::ReRamError;

/// One ReRAM cell: an `h`-bit conductance level plus its write counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Cell {
    level: u8,
    writes: u32,
}

impl Cell {
    /// A fresh cell at level 0 with zero wear.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Programs the cell to `level`. Fails when the level does not fit the
    /// cell's `h`-bit precision. Always counts as one write, even when the
    /// level is unchanged (the device still receives a programming pulse).
    pub(crate) fn program(&mut self, level: u8, cell_bits: u32) -> Result<(), ReRamError> {
        if u32::from(level) >= (1u32 << cell_bits) {
            return Err(ReRamError::OperandOverflow {
                value: u64::from(level),
                bits: cell_bits,
            });
        }
        self.level = level;
        self.writes = self.writes.saturating_add(1);
        Ok(())
    }

    /// The stored conductance level. Reading does not wear the cell.
    #[inline]
    pub(crate) fn read(&self) -> u8 {
        self.level
    }

    /// Number of programming pulses this cell has received.
    #[inline]
    pub(crate) fn writes(&self) -> u32 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_and_read() {
        let mut c = Cell::new();
        assert_eq!(c.read(), 0);
        c.program(3, 2).unwrap();
        assert_eq!(c.read(), 3);
        assert_eq!(c.writes(), 1);
    }

    #[test]
    fn program_rejects_out_of_range() {
        let mut c = Cell::new();
        assert!(c.program(4, 2).is_err()); // 2-bit cell holds 0..=3
        assert_eq!(c.read(), 0);
        assert_eq!(c.writes(), 0);
        assert!(c.program(255, 8).is_ok());
    }

    #[test]
    fn rewrite_counts_wear() {
        let mut c = Cell::new();
        for _ in 0..5 {
            c.program(1, 1).unwrap();
        }
        assert_eq!(c.writes(), 5);
    }

    #[test]
    fn reads_do_not_wear() {
        let mut c = Cell::new();
        c.program(2, 2).unwrap();
        for _ in 0..100 {
            let _ = c.read();
        }
        assert_eq!(c.writes(), 1);
    }
}
