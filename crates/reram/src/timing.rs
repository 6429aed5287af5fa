//! Latency model for PIM operations.
//!
//! The paper measures PIM-side time with NVSim (Section VI-A); here the same
//! quantities are derived analytically from the crossbar geometry:
//!
//! * **Data pass** — every data crossbar fires concurrently (SIMD across
//!   crossbars, Section II-A); a pass streams the query through the DAC in
//!   `⌈b_in/dac⌉` cycles of one crossbar read latency each. When several
//!   object groups stack vertically inside one crossbar (`s ≤ m/2`), each
//!   stacked slot needs its own pass because bitline currents would
//!   otherwise mix distinct objects.
//! * **Gather tree** — for `s > m`, each group's `⌈s/m⌉` partials reduce
//!   through `depth` levels of all-ones crossbars. The `g` objects of a
//!   group time-multiplex the tree in pipeline fashion:
//!   `(g + depth − 1)` stages of `⌈b_partial/dac⌉` cycles.
//! * **Buffer/bus** — results move crossbar → buffer array over the
//!   internal bus (Table 5: 50 GB/s); if a batch exceeds the 16 MB buffer
//!   it drains in waves.
//! * **Programming** — rows are programmed one pulse per crossbar row
//!   through the controller's single programming port (`write_ns` per row),
//!   which is what makes ReRAM pre-processing slower than DRAM
//!   pre-processing in Fig. 17 despite writing less data.

use crate::config::{AccWidth, PimConfig};
use crate::gather::CrossbarCost;

/// Latency breakdown of one PIM dot-product batch, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PimTiming {
    /// Query streaming through the data crossbars.
    pub data_pass_ns: f64,
    /// Gather-tree reduction (0 when `s ≤ m`).
    pub gather_ns: f64,
    /// Result movement over the internal bus into the buffer array.
    pub bus_ns: f64,
    /// Buffer array access latency (one burst per wave).
    pub buffer_ns: f64,
    /// Number of buffer waves the batch drained in.
    pub buffer_waves: u64,
}

impl PimTiming {
    /// Total PIM-side latency in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.data_pass_ns + self.gather_ns + self.bus_ns + self.buffer_ns
    }

    /// Accumulates another timing (e.g. multiple regions queried in
    /// sequence).
    pub fn add(&mut self, other: &PimTiming) {
        self.data_pass_ns += other.data_pass_ns;
        self.gather_ns += other.gather_ns;
        self.bus_ns += other.bus_ns;
        self.buffer_ns += other.buffer_ns;
        self.buffer_waves += other.buffer_waves;
    }

    /// Merges a batch that ran **in parallel** on disjoint crossbar groups
    /// (Section V-C: "it is flexible to separate the crossbars into
    /// multiple groups … for parallelly computing multiple functions").
    /// Analog passes overlap (take the slower group); the internal bus and
    /// buffer are shared, so their costs still accumulate.
    pub fn merge_parallel(&mut self, other: &PimTiming) {
        self.data_pass_ns = self.data_pass_ns.max(other.data_pass_ns);
        self.gather_ns = self.gather_ns.max(other.gather_ns);
        self.bus_ns += other.bus_ns;
        self.buffer_ns += other.buffer_ns;
        self.buffer_waves += other.buffer_waves;
    }
}

impl simpim_obs::ToJson for PimTiming {
    fn to_json(&self) -> simpim_obs::Json {
        use simpim_obs::Json;
        Json::obj([
            ("data_pass_ns", Json::Num(self.data_pass_ns)),
            ("gather_ns", Json::Num(self.gather_ns)),
            ("bus_ns", Json::Num(self.bus_ns)),
            ("buffer_ns", Json::Num(self.buffer_ns)),
            ("buffer_waves", Json::Num(self.buffer_waves as f64)),
            ("total_ns", Json::Num(self.total_ns())),
        ])
    }
}

/// Computes the latency of one dot-product batch.
///
/// * `cost` — the programmed layout (crossbar counts, grouping, slots).
/// * `input_bits` — bit-width of the streamed query operands.
/// * `partial_bits` — bit-width of the partials entering the gather tree.
/// * `n_results` — number of dot products produced (one per object).
pub fn dot_batch_timing(
    cfg: &PimConfig,
    cost: &CrossbarCost,
    input_bits: u32,
    partial_bits: u32,
    n_results: usize,
    acc: AccWidth,
) -> PimTiming {
    let xb = &cfg.crossbar;
    let read = xb.read_ns;

    // Sequential passes: how many object groups share one physical crossbar.
    let passes = (cost.groups * cost.chunks_per_object).div_ceil(cost.data.max(1)) as u64;
    let data_pass_ns = passes as f64 * xb.input_cycles(input_bits) as f64 * read;

    let gather_ns = if cost.gather_depth > 0 {
        let stages = (cost.group_size + cost.gather_depth - 1) as f64;
        stages * xb.input_cycles(partial_bits) as f64 * read
    } else {
        0.0
    };

    let result_bytes = n_results as u64 * acc.bytes();
    let bus_ns = cfg.bus_seconds(result_bytes) * 1e9;
    let buffer_waves = result_bytes.div_ceil(cfg.buffer_bytes.max(1)).max(1);
    let buffer_ns = buffer_waves as f64 * cfg.buffer_ns;

    PimTiming {
        data_pass_ns,
        gather_ns,
        bus_ns,
        buffer_ns,
        buffer_waves,
    }
}

/// Latency of programming `rows_written` crossbar rows (offline stage).
pub fn program_timing_ns(cfg: &PimConfig, rows_written: u64) -> f64 {
    rows_written as f64 * cfg.crossbar.write_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrossbarConfig;
    use crate::gather::dataset_crossbar_cost;

    fn cfg() -> PimConfig {
        PimConfig::default()
    }

    #[test]
    fn single_pass_small_dataset() {
        // 16 objects fit one group; s = 128 ≤ 256 → 2 slots but only one
        // group → 1 pass.
        let c = dataset_crossbar_cost(16, 128, 32, &cfg().crossbar).unwrap();
        let t = dot_batch_timing(&cfg(), &c, 20, 40, 16, AccWidth::U64);
        // 20-bit input through 2-bit DAC → 10 cycles × 29.31 ns.
        assert!((t.data_pass_ns - 10.0 * 29.31).abs() < 1e-9);
        assert_eq!(t.gather_ns, 0.0);
        assert_eq!(t.buffer_waves, 1);
    }

    #[test]
    fn stacked_slots_multiply_passes() {
        // 64 objects → 4 groups; s = 64 → 4 slots/crossbar → 1 data
        // crossbar → 4 sequential passes.
        let c = dataset_crossbar_cost(64, 64, 32, &cfg().crossbar).unwrap();
        assert_eq!(c.data, 1);
        let t = dot_batch_timing(&cfg(), &c, 20, 40, 64, AccWidth::U64);
        assert!((t.data_pass_ns - 4.0 * 10.0 * 29.31).abs() < 1e-9);
    }

    #[test]
    fn gather_adds_pipeline_latency() {
        let c = dataset_crossbar_cost(16, 1024, 32, &cfg().crossbar).unwrap();
        assert_eq!(c.gather_depth, 1);
        assert_eq!(c.group_size, 16);
        let t = dot_batch_timing(&cfg(), &c, 20, 40, 16, AccWidth::U64);
        // (16 + 1 − 1) stages × ⌈40/2⌉ cycles × 29.31 ns.
        assert!((t.gather_ns - 16.0 * 20.0 * 29.31).abs() < 1e-6);
        assert!(t.total_ns() > t.gather_ns);
    }

    #[test]
    fn bus_time_scales_with_results() {
        let c = dataset_crossbar_cost(1000, 128, 32, &cfg().crossbar).unwrap();
        let t1 = dot_batch_timing(&cfg(), &c, 20, 40, 1000, AccWidth::U64);
        let t2 = dot_batch_timing(&cfg(), &c, 20, 40, 2000, AccWidth::U64);
        assert!((t2.bus_ns / t1.bus_ns - 2.0).abs() < 1e-9);
        // U32 halves the result traffic.
        let t3 = dot_batch_timing(&cfg(), &c, 20, 40, 1000, AccWidth::U32);
        assert!((t1.bus_ns / t3.bus_ns - 2.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_batches_drain_in_waves() {
        let mut small = cfg();
        small.buffer_bytes = 1024;
        let c = dataset_crossbar_cost(1000, 128, 32, &small.crossbar).unwrap();
        let t = dot_batch_timing(&small, &c, 20, 40, 1000, AccWidth::U64);
        assert_eq!(t.buffer_waves, (1000u64 * 8).div_ceil(1024));
        assert!(t.buffer_ns >= t.buffer_waves as f64 * small.buffer_ns - 1e-9);
    }

    #[test]
    fn timing_add_accumulates() {
        let c = dataset_crossbar_cost(16, 128, 32, &cfg().crossbar).unwrap();
        let t = dot_batch_timing(&cfg(), &c, 20, 40, 16, AccWidth::U64);
        let mut sum = PimTiming::default();
        sum.add(&t);
        sum.add(&t);
        assert!((sum.total_ns() - 2.0 * t.total_ns()).abs() < 1e-9);
        assert_eq!(sum.buffer_waves, 2);
    }

    #[test]
    fn program_timing_uses_write_latency() {
        let t = program_timing_ns(&cfg(), 1000);
        assert!((t - 1000.0 * 50.88).abs() < 1e-9);
    }

    #[test]
    fn narrow_dac_needs_more_cycles() {
        let mut narrow = cfg();
        narrow.crossbar = CrossbarConfig {
            dac_bits: 1,
            adc_bits: 12,
            ..narrow.crossbar
        };
        let c = dataset_crossbar_cost(16, 128, 32, &narrow.crossbar).unwrap();
        let wide = dot_batch_timing(&cfg(), &c, 20, 40, 16, AccWidth::U64);
        let slim = dot_batch_timing(&narrow, &c, 20, 40, 16, AccWidth::U64);
        assert!(slim.data_pass_ns > wide.data_pass_ns);
    }
}
