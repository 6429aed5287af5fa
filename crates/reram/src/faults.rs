//! Deterministic, seedable crossbar fault injection (a beyond-the-paper
//! robustness study, companion to the test oracle's bounded analog
//! variation model).
//!
//! The paper assumes pristine crossbars; deployed ReRAM parts develop
//! **hard faults**: cells stuck at their lowest or highest conductance,
//! whole bitlines or wordlines that no longer conduct, transient ADC
//! glitches, and wear-out once a crossbar exceeds its write endurance
//! (Table 1 lists 10⁸–10¹¹ writes for ReRAM). This module models all of
//! them as *deterministic functions of a seed and the fault site*, the
//! same idiom the variation model's per-cell deviation uses, so every run
//! is exactly reproducible and property tests can sweep seeds.
//!
//! Fault semantics (applied by [`crate::array::PimArray`]'s array-level
//! emulation, and by the unit-level crossbar's `_faulty` pipeline that
//! checks it in tests):
//!
//! * **Stuck-at-low** — the cell reads level 0 regardless of programming.
//! * **Stuck-at-high** — the cell reads the maximum level `2^h − 1`.
//! * **Dead wordline** — inputs never reach the row; its contribution is 0.
//! * **Dead bitline** — the bitline's analog sum reads 0.
//! * **ADC glitch** — a transient misread; the controller re-samples the
//!   bitline up to [`FaultConfig::adc_retry_limit`] times and fails with
//!   [`crate::error::ReRamError::AdcRetryExhausted`] if every attempt
//!   glitches.
//! * **Wear-out** — once a crossbar's program count exceeds
//!   [`FaultConfig::endurance_limit`], its cells collapse to stuck-at-low.
//!
//! Because stuck cells and dead lines corrupt a *known* set of stored
//! operand slices, the worst-case dot-product deviation per object is
//! computable (`Σ |v_faulty − v_true|` scaled by the maximum query level),
//! which is what lets `simpim-core` keep guard-banded bounds provably
//! correct on *drifted* crossbars and fall back to exact host evaluation
//! on *dead* ones — mining results stay bit-identical to fault-free runs.

use crate::error::ReRamError;

/// Fault state of a single cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFault {
    /// The cell works.
    None,
    /// The cell reads level 0 regardless of programming.
    StuckLow,
    /// The cell reads the maximum level `2^h − 1`.
    StuckHigh,
}

/// Fail-stop state of a whole bank — the coarsest fault class. Unlike
/// the cell/line faults above (which corrupt *data* while the controller
/// keeps answering), a lost bank stops responding to programming and
/// dot-product commands entirely. There is no in-place recovery: the
/// resident dataset must be re-programmed onto a spare bank. Banks die
/// either through the [`ReRamBank::kill`](crate::bank::ReRamBank::kill)
/// injection API or deterministically after
/// [`FaultConfig::bank_loss_after_dispatches`] dot-product batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankLoss {
    /// The controller responds normally.
    #[default]
    Alive,
    /// The controller is fail-stopped; every command returns
    /// [`ReRamError::BankLost`].
    Lost,
}

impl BankLoss {
    /// Whether the bank is fail-stopped.
    pub fn is_lost(self) -> bool {
        self == Self::Lost
    }
}

/// Health classification of one crossbar after a scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossbarHealth {
    /// No fault intersects the crossbar's programmed area.
    Healthy,
    /// Isolated stuck cells corrupt stored operands by a *bounded,
    /// known* amount — usable behind a widened guard-band.
    Drifted,
    /// A dead line, wear-out, or a corrupted gather tree makes the
    /// crossbar's results untrustworthy; it must be remapped or its
    /// objects quarantined.
    Dead,
}

/// Deterministic fault-injection model. All rates are per-site
/// probabilities; every site's fate is a pure splitmix64 hash of
/// `(seed, site)`, so a given configuration always yields the same fault
/// map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a cell is stuck at level 0.
    pub stuck_low_rate: f64,
    /// Probability that a cell is stuck at the maximum level.
    pub stuck_high_rate: f64,
    /// Probability that a bitline is dead (reads 0).
    pub dead_bitline_rate: f64,
    /// Probability that a wordline is dead (inputs never reach it).
    pub dead_wordline_rate: f64,
    /// Probability that one ADC sampling attempt glitches.
    pub adc_glitch_rate: f64,
    /// Sampling attempts before the controller gives up on a glitching
    /// ADC (must be ≥ 1).
    pub adc_retry_limit: u32,
    /// Crossbar program-count budget; exceeding it wears the crossbar
    /// out (all cells stuck-at-low). `0` disables wear-out.
    pub endurance_limit: u32,
    /// Whole-bank fail-stop injection: the bank dies (every command
    /// returns [`ReRamError::BankLost`]) once it has served this many
    /// dot-product dispatches. `0` disables bank loss.
    pub bank_loss_after_dispatches: u64,
    /// Seed of the deterministic fault map.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            stuck_low_rate: 0.0,
            stuck_high_rate: 0.0,
            dead_bitline_rate: 0.0,
            dead_wordline_rate: 0.0,
            adc_glitch_rate: 0.0,
            adc_retry_limit: 3,
            endurance_limit: 0,
            bank_loss_after_dispatches: 0,
            seed: 0,
        }
    }
}

// Distinct hash streams so the fault classes are decorrelated.
const STREAM_CELL: u64 = 0x5AFE_CE11;
const STREAM_BITLINE: u64 = 0xB17_11FE;
const STREAM_WORDLINE: u64 = 0x30BD_11FE;
const STREAM_GLITCH: u64 = 0x6117C4;

impl FaultConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ReRamError> {
        let rates = [
            self.stuck_low_rate,
            self.stuck_high_rate,
            self.dead_bitline_rate,
            self.dead_wordline_rate,
            self.adc_glitch_rate,
        ];
        if rates.iter().any(|r| !(0.0..=1.0).contains(r) || r.is_nan()) {
            return Err(ReRamError::InvalidConfig {
                what: "fault rates must be in [0, 1]",
            });
        }
        if self.stuck_low_rate + self.stuck_high_rate > 1.0 {
            return Err(ReRamError::InvalidConfig {
                what: "stuck_low_rate + stuck_high_rate must not exceed 1",
            });
        }
        if self.adc_retry_limit == 0 {
            return Err(ReRamError::InvalidConfig {
                what: "adc_retry_limit must be at least 1",
            });
        }
        Ok(())
    }

    /// `true` when no fault class can ever fire (rates all zero and
    /// wear-out disabled) — the fault-free fast paths stay exact.
    pub fn is_inert(&self) -> bool {
        self.stuck_low_rate == 0.0
            && self.stuck_high_rate == 0.0
            && self.dead_bitline_rate == 0.0
            && self.dead_wordline_rate == 0.0
            && self.adc_glitch_rate == 0.0
            && self.endurance_limit == 0
            && self.bank_loss_after_dispatches == 0
    }

    /// Deterministic unit sample in `[0, 1)` for a fault site
    /// (splitmix64 of the coordinates, mirroring the variation model's
    /// per-cell deviation).
    fn unit(&self, stream: u64, a: u64, b: u64, c: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(a.wrapping_add(1)))
            .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(b.wrapping_add(1)))
            .wrapping_add(0x94D0_49BB_1331_11EBu64.wrapping_mul(c.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fault state of cell `(row, col)` of physical crossbar `crossbar`.
    pub fn cell_fault(&self, crossbar: usize, row: usize, col: usize) -> CellFault {
        if self.stuck_low_rate == 0.0 && self.stuck_high_rate == 0.0 {
            return CellFault::None;
        }
        let u = self.unit(STREAM_CELL, crossbar as u64, row as u64, col as u64);
        if u < self.stuck_low_rate {
            CellFault::StuckLow
        } else if u < self.stuck_low_rate + self.stuck_high_rate {
            CellFault::StuckHigh
        } else {
            CellFault::None
        }
    }

    /// Whether bitline `col` of crossbar `crossbar` is dead.
    pub fn dead_bitline(&self, crossbar: usize, col: usize) -> bool {
        self.dead_bitline_rate > 0.0
            && self.unit(STREAM_BITLINE, crossbar as u64, col as u64, 0) < self.dead_bitline_rate
    }

    /// Whether wordline `row` of crossbar `crossbar` is dead.
    pub fn dead_wordline(&self, crossbar: usize, row: usize) -> bool {
        self.dead_wordline_rate > 0.0
            && self.unit(STREAM_WORDLINE, crossbar as u64, row as u64, 0) < self.dead_wordline_rate
    }

    /// Whether sampling attempt `attempt` of crossbar `crossbar`'s ADC
    /// glitches.
    pub fn adc_glitch(&self, crossbar: usize, attempt: u32) -> bool {
        self.adc_glitch_rate > 0.0
            && self.unit(STREAM_GLITCH, crossbar as u64, u64::from(attempt), 0)
                < self.adc_glitch_rate
    }

    /// Walks the bounded retry chain of crossbar `crossbar`'s ADC:
    /// returns the number of glitched attempts before a clean sample, or
    /// [`ReRamError::AdcRetryExhausted`] when every attempt within the
    /// retry budget glitches.
    pub fn glitch_retries(&self, crossbar: usize) -> Result<u32, ReRamError> {
        for attempt in 0..self.adc_retry_limit {
            if !self.adc_glitch(crossbar, attempt) {
                return Ok(attempt);
            }
        }
        Err(ReRamError::AdcRetryExhausted {
            crossbar,
            attempts: self.adc_retry_limit,
        })
    }

    /// Whether a crossbar with `programs` program cycles has exceeded its
    /// write endurance.
    pub fn worn_out(&self, programs: u32) -> bool {
        self.endurance_limit > 0 && programs > self.endurance_limit
    }

    /// The level cell `(row, col)` of crossbar `crossbar` actually reads
    /// when programmed to `programmed`, given the crossbar's wear state.
    pub fn effective_level(
        &self,
        crossbar: usize,
        row: usize,
        col: usize,
        programmed: u8,
        cell_bits: u32,
        worn: bool,
    ) -> u8 {
        if worn {
            return 0;
        }
        match self.cell_fault(crossbar, row, col) {
            CellFault::None => programmed,
            CellFault::StuckLow => 0,
            CellFault::StuckHigh => ((1u16 << cell_bits) - 1) as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert_and_valid() {
        let cfg = FaultConfig::default();
        cfg.validate().unwrap();
        assert!(cfg.is_inert());
        for xb in 0..4 {
            for r in 0..16 {
                for c in 0..16 {
                    assert_eq!(cfg.cell_fault(xb, r, c), CellFault::None);
                }
                assert!(!cfg.dead_wordline(xb, r));
                assert!(!cfg.dead_bitline(xb, r));
            }
            assert_eq!(cfg.glitch_retries(xb).unwrap(), 0);
        }
        assert!(!cfg.worn_out(u32::MAX));
    }

    #[test]
    fn fault_maps_are_deterministic_and_seed_sensitive() {
        let a = FaultConfig {
            stuck_low_rate: 0.2,
            stuck_high_rate: 0.2,
            dead_bitline_rate: 0.3,
            dead_wordline_rate: 0.3,
            seed: 7,
            ..Default::default()
        };
        let b = FaultConfig { seed: 8, ..a };
        let mut differs = false;
        for r in 0..32 {
            for c in 0..32 {
                assert_eq!(a.cell_fault(5, r, c), a.cell_fault(5, r, c));
                if a.cell_fault(5, r, c) != b.cell_fault(5, r, c) {
                    differs = true;
                }
            }
        }
        assert!(differs, "different seeds must produce different maps");
        // Different crossbars see different fault sites too.
        let same: usize = (0..64)
            .filter(|&r| a.dead_wordline(0, r) == a.dead_wordline(1, r))
            .count();
        assert!(same < 64);
    }

    #[test]
    fn rates_control_fault_density() {
        let cfg = FaultConfig {
            stuck_low_rate: 0.5,
            ..Default::default()
        };
        let stuck = (0..64)
            .flat_map(|r| (0..64).map(move |c| (r, c)))
            .filter(|&(r, c)| cfg.cell_fault(0, r, c) == CellFault::StuckLow)
            .count();
        // 4096 sites at p = 0.5: comfortably within [1500, 2600].
        assert!((1500..2600).contains(&stuck), "stuck count {stuck}");
        assert!((0..64)
            .flat_map(|r| (0..64).map(move |c| (r, c)))
            .all(|(r, c)| cfg.cell_fault(0, r, c) != CellFault::StuckHigh));
    }

    #[test]
    fn glitch_retry_chain_is_bounded() {
        let always = FaultConfig {
            adc_glitch_rate: 1.0,
            adc_retry_limit: 4,
            ..Default::default()
        };
        assert_eq!(
            always.glitch_retries(3),
            Err(ReRamError::AdcRetryExhausted {
                crossbar: 3,
                attempts: 4
            })
        );
        let sometimes = FaultConfig {
            adc_glitch_rate: 0.5,
            adc_retry_limit: 16,
            seed: 11,
            ..Default::default()
        };
        for xb in 0..32 {
            let retries = sometimes.glitch_retries(xb).unwrap();
            assert!(retries < 16);
        }
    }

    #[test]
    fn wear_out_threshold() {
        let cfg = FaultConfig {
            endurance_limit: 10,
            ..Default::default()
        };
        assert!(!cfg.worn_out(10));
        assert!(cfg.worn_out(11));
        assert!(!FaultConfig::default().worn_out(1_000_000));
    }

    #[test]
    fn effective_level_applies_faults() {
        let cfg = FaultConfig {
            stuck_low_rate: 0.5,
            stuck_high_rate: 0.5,
            seed: 3,
            ..Default::default()
        };
        for r in 0..16 {
            for c in 0..16 {
                let lvl = cfg.effective_level(0, r, c, 2, 2, false);
                match cfg.cell_fault(0, r, c) {
                    CellFault::None => assert_eq!(lvl, 2),
                    CellFault::StuckLow => assert_eq!(lvl, 0),
                    CellFault::StuckHigh => assert_eq!(lvl, 3),
                }
                // Worn crossbars read zero everywhere.
                assert_eq!(cfg.effective_level(0, r, c, 2, 2, true), 0);
            }
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let bad_rate = FaultConfig {
            stuck_low_rate: 1.5,
            ..Default::default()
        };
        assert!(bad_rate.validate().is_err());
        let bad_sum = FaultConfig {
            stuck_low_rate: 0.7,
            stuck_high_rate: 0.7,
            ..Default::default()
        };
        assert!(bad_sum.validate().is_err());
        let bad_retry = FaultConfig {
            adc_retry_limit: 0,
            ..Default::default()
        };
        assert!(bad_retry.validate().is_err());
    }
}
