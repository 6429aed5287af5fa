//! The five-component time breakdown of Eq. 1.

use std::fmt;

/// `T_total = T_c + T_cache + T_ALU + T_Br + T_Fe`, all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Computation time actually spent executing operations.
    pub tc_ns: f64,
    /// Memory stall time from data transfer (cache/TLB misses).
    pub tcache_ns: f64,
    /// ALU execution stalls from long-latency ops (divide, sqrt).
    pub talu_ns: f64,
    /// Branch misprediction stalls.
    pub tbr_ns: f64,
    /// Front-end (fetch/decode) stalls.
    pub tfe_ns: f64,
}

impl TimeBreakdown {
    /// Total execution time in nanoseconds (Eq. 1).
    pub fn total_ns(&self) -> f64 {
        self.tc_ns + self.tcache_ns + self.talu_ns + self.tbr_ns + self.tfe_ns
    }

    /// Total execution time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns() / 1e6
    }

    /// Fraction of total time spent in memory stalls (the paper's headline
    /// profiling observation: 62–83% for kNN / k-means).
    pub fn tcache_fraction(&self) -> f64 {
        let t = self.total_ns();
        if t == 0.0 {
            0.0
        } else {
            self.tcache_ns / t
        }
    }

    /// The five components as fractions `[tc, tcache, talu, tbr, tfe]`
    /// summing to 1 (or all zeros for an empty breakdown).
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total_ns();
        if t == 0.0 {
            return [0.0; 5];
        }
        [
            self.tc_ns / t,
            self.tcache_ns / t,
            self.talu_ns / t,
            self.tbr_ns / t,
            self.tfe_ns / t,
        ]
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &TimeBreakdown) {
        self.tc_ns += other.tc_ns;
        self.tcache_ns += other.tcache_ns;
        self.talu_ns += other.talu_ns;
        self.tbr_ns += other.tbr_ns;
        self.tfe_ns += other.tfe_ns;
    }

    /// Component-wise scaling (e.g. extrapolating a sampled profile).
    pub fn scaled(&self, factor: f64) -> TimeBreakdown {
        TimeBreakdown {
            tc_ns: self.tc_ns * factor,
            tcache_ns: self.tcache_ns * factor,
            talu_ns: self.talu_ns * factor,
            tbr_ns: self.tbr_ns * factor,
            tfe_ns: self.tfe_ns * factor,
        }
    }
}

impl simpim_obs::ToJson for TimeBreakdown {
    fn to_json(&self) -> simpim_obs::Json {
        use simpim_obs::Json;
        Json::obj([
            ("tc_ns", Json::Num(self.tc_ns)),
            ("tcache_ns", Json::Num(self.tcache_ns)),
            ("talu_ns", Json::Num(self.talu_ns)),
            ("tbr_ns", Json::Num(self.tbr_ns)),
            ("tfe_ns", Json::Num(self.tfe_ns)),
            ("total_ns", Json::Num(self.total_ns())),
        ])
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fr = self.fractions();
        write!(
            f,
            "total {:.3} ms (Tc {:.1}%, Tcache {:.1}%, TALU {:.1}%, TBr {:.1}%, TFe {:.1}%)",
            self.total_ms(),
            fr[0] * 100.0,
            fr[1] * 100.0,
            fr[2] * 100.0,
            fr[3] * 100.0,
            fr[4] * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeBreakdown {
        TimeBreakdown {
            tc_ns: 10.0,
            tcache_ns: 70.0,
            talu_ns: 5.0,
            tbr_ns: 10.0,
            tfe_ns: 5.0,
        }
    }

    #[test]
    fn totals_and_fractions() {
        let b = sample();
        assert_eq!(b.total_ns(), 100.0);
        assert!((b.tcache_fraction() - 0.7).abs() < 1e-12);
        let fr = b.fractions();
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let b = TimeBreakdown::default();
        assert_eq!(b.total_ns(), 0.0);
        assert_eq!(b.tcache_fraction(), 0.0);
        assert_eq!(b.fractions(), [0.0; 5]);
    }

    #[test]
    fn add_and_scale() {
        let mut a = sample();
        a.add(&sample());
        assert_eq!(a.total_ns(), 200.0);
        let s = a.scaled(0.5);
        assert_eq!(s.total_ns(), 100.0);
        assert_eq!(s.tc_ns, 10.0);
    }

    #[test]
    fn display_mentions_components() {
        let s = sample().to_string();
        assert!(s.contains("Tcache 70.0%"));
        assert!(s.contains("total"));
    }
}
