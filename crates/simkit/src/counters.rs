//! Operation counters — the PAPI substitute.
//!
//! Mining algorithms increment these counters as they run; the cost model
//! ([`crate::cost::HostParams`]) converts the totals into the five time
//! components of Eq. 1. Counting is deterministic, so profiles are exactly
//! reproducible (unlike sampled hardware counters).

/// Deterministic operation/traffic counters for one measured scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounters {
    /// Simple arithmetic ops (add/sub/fma treated as one each).
    pub arith: u64,
    /// Multiplications (same issue cost as `arith`, counted separately for
    /// reporting).
    pub mul: u64,
    /// Divisions (long-latency: contributes to `T_ALU`).
    pub div: u64,
    /// Square roots (long-latency: contributes to `T_ALU`).
    pub sqrt: u64,
    /// Comparisons.
    pub cmp: u64,
    /// Conditional branches (data-dependent; contributes to `T_Br`).
    pub branch: u64,
    /// Bytes read as sequential streams (scans over vectors / bound
    /// tables) — the dominant `T_cache` driver.
    pub bytes_streamed: u64,
    /// Number of random fetches (each pays one memory round-trip latency
    /// on top of its streamed bytes — refinement reads of far-away rows).
    pub random_fetches: u64,
    /// Bytes written to memory (pre-processing, bound tables, centroids).
    pub bytes_written: u64,
}

impl OpCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter set.
    pub fn add(&mut self, other: &OpCounters) {
        self.arith += other.arith;
        self.mul += other.mul;
        self.div += other.div;
        self.sqrt += other.sqrt;
        self.cmp += other.cmp;
        self.branch += other.branch;
        self.bytes_streamed += other.bytes_streamed;
        self.random_fetches += other.random_fetches;
        self.bytes_written += other.bytes_written;
    }

    /// Counter difference (`self − other`), for scoped measurements.
    /// Saturates at zero rather than wrapping.
    pub fn delta(&self, before: &OpCounters) -> OpCounters {
        OpCounters {
            arith: self.arith.saturating_sub(before.arith),
            mul: self.mul.saturating_sub(before.mul),
            div: self.div.saturating_sub(before.div),
            sqrt: self.sqrt.saturating_sub(before.sqrt),
            cmp: self.cmp.saturating_sub(before.cmp),
            branch: self.branch.saturating_sub(before.branch),
            bytes_streamed: self.bytes_streamed.saturating_sub(before.bytes_streamed),
            random_fetches: self.random_fetches.saturating_sub(before.random_fetches),
            bytes_written: self.bytes_written.saturating_sub(before.bytes_written),
        }
    }

    /// Records a sequential scan of `bytes`.
    #[inline]
    pub fn stream(&mut self, bytes: u64) {
        self.bytes_streamed += bytes;
    }

    /// Records a random fetch of `bytes` (one latency + streamed payload).
    #[inline]
    pub fn random_fetch(&mut self, bytes: u64) {
        self.random_fetches += 1;
        self.bytes_streamed += bytes;
    }

    /// Records writing `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: u64) {
        self.bytes_written += bytes;
    }

    /// Records the inner loop of a `d`-dimensional squared-ED computation:
    /// `d` subtractions, `d` multiplies, `d` adds, plus the streamed reads
    /// of both operands (`2·d·width` bytes — or `d·width` when one operand
    /// stays cache-resident, which the caller accounts by passing
    /// `operand_bytes`).
    #[inline]
    pub fn euclidean_kernel(&mut self, d: u64, operand_bytes: u64) {
        self.arith += 2 * d;
        self.mul += d;
        self.bytes_streamed += operand_bytes;
    }

    /// Records a `d`-dimensional dot-product kernel (`d` muls, `d` adds).
    #[inline]
    pub fn dot_kernel(&mut self, d: u64, operand_bytes: u64) {
        self.arith += d;
        self.mul += d;
        self.bytes_streamed += operand_bytes;
    }

    /// Records one compare-and-branch (pruning test).
    #[inline]
    pub fn prune_test(&mut self) {
        self.prune_tests(1);
    }

    /// Records `n` compare-and-branches at once.
    #[inline]
    pub fn prune_tests(&mut self, n: u64) {
        self.cmp += n;
        self.branch += n;
    }

    /// Total operation count (all classes).
    pub fn total_ops(&self) -> u64 {
        self.arith + self.mul + self.div + self.sqrt + self.cmp + self.branch
    }
}

impl simpim_obs::ToJson for OpCounters {
    fn to_json(&self) -> simpim_obs::Json {
        use simpim_obs::Json;
        Json::obj([
            ("arith", self.arith.to_json()),
            ("mul", self.mul.to_json()),
            ("div", self.div.to_json()),
            ("sqrt", self.sqrt.to_json()),
            ("cmp", self.cmp.to_json()),
            ("branch", self.branch.to_json()),
            ("bytes_streamed", self.bytes_streamed.to_json()),
            ("random_fetches", self.random_fetches.to_json()),
            ("bytes_written", self.bytes_written.to_json()),
        ])
    }
}

/// Deterministic counters for the PIM fault-tolerance machinery: how much
/// detection, recovery and host-side fallback work a run incurred.
///
/// Like [`OpCounters`], these are exact event counts, not samples — two runs
/// with the same fault seed report identical totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Scrub passes executed over programmed regions.
    pub scrubs: u64,
    /// Faulty cells / dead lines found by scrubbing.
    pub faults_detected: u64,
    /// Extra ADC sampling attempts spent on transient glitches.
    pub adc_retries: u64,
    /// Dead crossbars remapped onto spare capacity.
    pub remapped_crossbars: u64,
    /// Objects quarantined because no clean spare could take them.
    pub quarantined_rows: u64,
    /// Bounds recomputed exactly on the host for quarantined objects.
    pub fallback_refinements: u64,
    /// Bounds widened by the drift guard-band instead of recomputed.
    pub guarded_bounds: u64,
}

impl FaultCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter set.
    pub fn add(&mut self, other: &FaultCounters) {
        self.scrubs += other.scrubs;
        self.faults_detected += other.faults_detected;
        self.adc_retries += other.adc_retries;
        self.remapped_crossbars += other.remapped_crossbars;
        self.quarantined_rows += other.quarantined_rows;
        self.fallback_refinements += other.fallback_refinements;
        self.guarded_bounds += other.guarded_bounds;
    }

    /// True when no fault, recovery or fallback event was recorded.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

impl simpim_obs::ToJson for FaultCounters {
    fn to_json(&self) -> simpim_obs::Json {
        use simpim_obs::Json;
        Json::obj([
            ("scrubs", self.scrubs.to_json()),
            ("faults_detected", self.faults_detected.to_json()),
            ("adc_retries", self.adc_retries.to_json()),
            ("remapped_crossbars", self.remapped_crossbars.to_json()),
            ("quarantined_rows", self.quarantined_rows.to_json()),
            ("fallback_refinements", self.fallback_refinements.to_json()),
            ("guarded_bounds", self.guarded_bounds.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_delta_are_inverse() {
        let mut a = OpCounters::new();
        a.euclidean_kernel(100, 800);
        a.prune_test();
        let snapshot = a;
        a.dot_kernel(50, 400);
        a.random_fetch(64);
        let d = a.delta(&snapshot);
        assert_eq!(d.mul, 50);
        assert_eq!(d.arith, 50);
        assert_eq!(d.bytes_streamed, 464);
        assert_eq!(d.random_fetches, 1);
        let mut back = snapshot;
        back.add(&d);
        assert_eq!(back, a);
    }

    #[test]
    fn kernels_count_expected_ops() {
        let mut c = OpCounters::new();
        c.euclidean_kernel(10, 160);
        assert_eq!(c.arith, 20);
        assert_eq!(c.mul, 10);
        assert_eq!(c.bytes_streamed, 160);
        c.dot_kernel(10, 80);
        assert_eq!(c.mul, 20);
        assert_eq!(c.total_ops(), 50); // 20+10 from ED kernel, 10+10 from dot kernel
    }

    #[test]
    fn delta_saturates() {
        let a = OpCounters::new();
        let mut b = OpCounters::new();
        b.arith = 5;
        assert_eq!(a.delta(&b).arith, 0);
    }

    #[test]
    fn write_and_stream_tracked_separately() {
        let mut c = OpCounters::new();
        c.stream(100);
        c.write(40);
        assert_eq!(c.bytes_streamed, 100);
        assert_eq!(c.bytes_written, 40);
    }

    #[test]
    fn fault_counters_accumulate_and_report_cleanliness() {
        let mut total = FaultCounters::new();
        assert!(total.is_clean());
        let batch = FaultCounters {
            scrubs: 1,
            faults_detected: 3,
            adc_retries: 2,
            remapped_crossbars: 1,
            quarantined_rows: 4,
            fallback_refinements: 4,
            guarded_bounds: 7,
        };
        total.add(&batch);
        total.add(&batch);
        assert!(!total.is_clean());
        assert_eq!(total.scrubs, 2);
        assert_eq!(total.faults_detected, 6);
        assert_eq!(total.quarantined_rows, 8);
        assert_eq!(total.guarded_bounds, 14);
    }
}
