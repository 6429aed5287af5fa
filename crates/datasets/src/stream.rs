//! Streaming dataset materialization (paper-scale execution, DESIGN.md §15).
//!
//! Every generator in this crate is a *sequential* function of one seeded
//! RNG: a short prefix (cluster centers, block templates, hyperplanes) is
//! drawn first, then each row consumes a fixed run of draws. That makes
//! the generators streamable for free — a source that replays the prefix
//! once and then produces rows in order is bit-identical to one-shot
//! materialization, whether the rows are pulled as one block or many.
//!
//! [`DatasetSource`] is that contract: `next_block` appends up to
//! `max_rows` rows, `reset` rewinds to row 0, and `skip` fast-forwards to
//! an arbitrary row so a consumer can resume mid-stream (e.g. re-programs
//! a single shard without touching the rest of the fleet). One-shot
//! generation is *implemented on top of* the sources
//! ([`crate::synth::generate_labeled`] drains a [`SynthSource`]), so the
//! streamed/one-shot equivalence holds by construction, and the proptests
//! in `tests/properties.rs` pin it across block sizes and resume points.
//!
//! Peak host memory for a streamed consumer is `O(block · d)` plus the
//! generator state (centers + template for synth, hyperplanes for LSH,
//! the raw series for time-series windows) — never `O(N · d)`.

use crate::spec::DatasetSpec;
use crate::synth::SyntheticConfig;
use crate::timeseries::{generate_series, SeriesConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simpim_similarity::{BinaryDataset, Dataset};

/// Rows per streamed block. Sized so a GIST-shaped block (d = 960, f64)
/// stays under ~64 MiB.
pub const DEFAULT_BLOCK_ROWS: usize = 8192;

/// A resettable, skippable producer of dataset rows in a fixed order.
///
/// Implementations guarantee **block-size independence**: the
/// concatenation of the rows appended by any sequence of `next_block`
/// calls equals the rows of the one-shot materialization, bit for bit.
pub trait DatasetSource {
    /// Row dimensionality.
    fn dim(&self) -> usize;
    /// Total number of rows the source will produce.
    fn total(&self) -> usize;
    /// Index of the next row `next_block` would yield.
    fn position(&self) -> usize;
    /// Appends up to `max_rows` rows (flat, row-major) to `out`; returns
    /// the number of rows appended (0 exactly when the source is drained).
    fn next_block(&mut self, max_rows: usize, out: &mut Vec<f64>) -> usize;
    /// Rewinds the source to row 0.
    fn reset(&mut self);

    /// Fast-forwards past `rows` rows without retaining them.
    fn skip(&mut self, rows: usize) {
        let mut scratch = Vec::new();
        let mut left = rows;
        while left > 0 {
            scratch.clear();
            let got = self.next_block(left.min(DEFAULT_BLOCK_ROWS), &mut scratch);
            if got == 0 {
                break;
            }
            left -= got;
        }
    }

    /// Drains the remaining rows into one in-memory [`Dataset`].
    fn materialize(&mut self) -> Dataset {
        let mut flat = Vec::with_capacity((self.total() - self.position()) * self.dim());
        while self.next_block(DEFAULT_BLOCK_ROWS, &mut flat) > 0 {}
        Dataset::from_flat(flat, self.dim()).expect("source yields whole rows")
    }
}

/// A [`DatasetSource`] over rows already in memory: blocks are slices of
/// the borrowed [`Dataset`]'s flat buffer, so consumers written against
/// the streaming contract serve in-memory callers without a second path.
#[derive(Debug, Clone)]
pub struct InMemorySource<'a> {
    data: &'a Dataset,
    pos: usize,
}

impl<'a> InMemorySource<'a> {
    /// Wraps `data`, parked at row 0.
    pub fn new(data: &'a Dataset) -> Self {
        Self { data, pos: 0 }
    }
}

impl DatasetSource for InMemorySource<'_> {
    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn total(&self) -> usize {
        self.data.len()
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn next_block(&mut self, max_rows: usize, out: &mut Vec<f64>) -> usize {
        let take = max_rows.min(self.total() - self.pos);
        let d = self.dim();
        out.extend_from_slice(&self.data.as_flat()[self.pos * d..(self.pos + take) * d]);
        self.pos += take;
        take
    }

    fn reset(&mut self) {
        self.pos = 0;
    }

    fn skip(&mut self, rows: usize) {
        self.pos = (self.pos + rows).min(self.total());
    }
}

/// Streaming view of the synthetic Gaussian-mixture generator.
///
/// Holds only the RNG, the cluster centers, and the block templates —
/// `O(clusters · d)` resident state regardless of `n`.
#[derive(Debug, Clone)]
pub struct SynthSource {
    cfg: SyntheticConfig,
    centers: Vec<Vec<f64>>,
    template: Vec<(f64, f64)>,
    /// RNG state immediately after the prefix draws (for `reset`).
    rng_at_start: StdRng,
    rng: StdRng,
    pos: usize,
    row_buf: Vec<f64>,
}

impl SynthSource {
    /// Builds the source: replays the prefix draws (centers, templates)
    /// and parks the RNG at the first row.
    pub fn new(cfg: SyntheticConfig) -> Self {
        assert!(
            cfg.n > 0 && cfg.d > 0 && cfg.clusters > 0,
            "empty generation request"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.stat_uniformity),
            "stat_uniformity must be in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Prefix draw order is load-bearing: centers first, then the
        // per-block template stats, exactly as one-shot generation always
        // did. Centers are piecewise-constant over length-⌈d/64⌉ blocks.
        let center_block = (cfg.d / 64).max(1);
        let centers: Vec<Vec<f64>> = (0..cfg.clusters)
            .map(|_| {
                let mut center = Vec::with_capacity(cfg.d);
                while center.len() < cfg.d {
                    let v = rng.gen_range(0.2..0.8);
                    for _ in 0..center_block.min(cfg.d - center.len()) {
                        center.push(v);
                    }
                }
                center
            })
            .collect();

        let blocks = cfg.d / crate::synth::UNIFORM_BLOCK;
        let template: Vec<(f64, f64)> = (0..blocks.max(1))
            .map(|_| (rng.gen_range(0.35..0.65), rng.gen_range(0.05..0.15)))
            .collect();

        Self {
            cfg,
            centers,
            template,
            rng_at_start: rng.clone(),
            rng,
            pos: 0,
            row_buf: vec![0.0; cfg.d],
        }
    }

    /// Builds the source for a spec realized at `n` objects.
    pub fn from_spec(spec: &DatasetSpec, n: usize) -> Self {
        Self::new(SyntheticConfig::from_spec(spec, n))
    }

    /// Like [`DatasetSource::next_block`], but also appends each row's
    /// latent cluster label to `labels`.
    pub fn next_block_labeled(
        &mut self,
        max_rows: usize,
        out: &mut Vec<f64>,
        labels: &mut Vec<usize>,
    ) -> usize {
        let take = max_rows.min(self.cfg.n - self.pos);
        out.reserve(take * self.cfg.d);
        for _ in 0..take {
            let label = crate::synth::gen_row(
                &mut self.rng,
                &self.cfg,
                &self.centers,
                &self.template,
                &mut self.row_buf,
            );
            labels.push(label);
            out.extend_from_slice(&self.row_buf);
        }
        self.pos += take;
        take
    }
}

impl DatasetSource for SynthSource {
    fn dim(&self) -> usize {
        self.cfg.d
    }

    fn total(&self) -> usize {
        self.cfg.n
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn next_block(&mut self, max_rows: usize, out: &mut Vec<f64>) -> usize {
        let mut labels = Vec::new();
        self.next_block_labeled(max_rows, out, &mut labels)
    }

    fn reset(&mut self) {
        self.rng = self.rng_at_start.clone();
        self.pos = 0;
    }

    fn skip(&mut self, rows: usize) {
        // Each row consumes a fixed run of draws (1 label + 2·d normals);
        // regenerating into the scratch row is exact and allocation-free.
        let take = rows.min(self.cfg.n - self.pos);
        for _ in 0..take {
            let _ = crate::synth::gen_row(
                &mut self.rng,
                &self.cfg,
                &self.centers,
                &self.template,
                &mut self.row_buf,
            );
        }
        self.pos += take;
    }
}

/// Streaming view of the sliding-window time-series dataset
/// (`simpim_mining::motif::window_dataset` shape): row `i` is
/// `series[i .. i + w]`.
///
/// The resident state is the raw series (`O(L)`), a factor `w` smaller
/// than the materialized window dataset (`O(L · w)`).
#[derive(Debug, Clone)]
pub struct TimeseriesWindowSource {
    values: Vec<f64>,
    w: usize,
    pos: usize,
}

impl TimeseriesWindowSource {
    /// Builds the source over a generated planted series with window `w`.
    pub fn new(cfg: &SeriesConfig, w: usize) -> Self {
        let series = generate_series(cfg);
        Self::from_values(series.values, w)
    }

    /// Builds the source over explicit series values with window `w`.
    pub fn from_values(values: Vec<f64>, w: usize) -> Self {
        assert!(w >= 1 && w <= values.len(), "window must fit the series");
        Self { values, w, pos: 0 }
    }
}

impl DatasetSource for TimeseriesWindowSource {
    fn dim(&self) -> usize {
        self.w
    }

    fn total(&self) -> usize {
        self.values.len() - self.w + 1
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn next_block(&mut self, max_rows: usize, out: &mut Vec<f64>) -> usize {
        let take = max_rows.min(self.total() - self.pos);
        out.reserve(take * self.w);
        for i in self.pos..self.pos + take {
            out.extend_from_slice(&self.values[i..i + self.w]);
        }
        self.pos += take;
        take
    }

    fn reset(&mut self) {
        self.pos = 0;
    }

    fn skip(&mut self, rows: usize) {
        self.pos = (self.pos + rows).min(self.total());
    }
}

/// Streaming SimHash encoder: pulls blocks from an inner f64 source and
/// yields the corresponding LSH code rows (Fig. 14's workload) without
/// ever materializing the full float dataset or the full code table.
///
/// Resident state is the hyperplane matrix (`bits · d`) plus one block.
pub struct LshCodeSource<S: DatasetSource> {
    inner: S,
    hyperplanes: Vec<Vec<f64>>,
    bits: usize,
    block_buf: Vec<f64>,
    code_buf: Vec<bool>,
}

impl<S: DatasetSource> LshCodeSource<S> {
    /// Draws the hyperplanes (same prefix order as
    /// [`crate::lsh::lsh_codes`]) and wraps `inner`.
    pub fn new(inner: S, bits: usize, seed: u64) -> Self {
        assert!(bits > 0, "code width must be non-zero");
        let d = inner.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let hyperplanes: Vec<Vec<f64>> = (0..bits)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        Self {
            inner,
            hyperplanes,
            bits,
            block_buf: Vec::new(),
            code_buf: vec![false; bits],
        }
    }

    /// Code width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Total number of code rows the source will produce.
    pub fn total(&self) -> usize {
        self.inner.total()
    }

    /// Index of the next code row.
    pub fn position(&self) -> usize {
        self.inner.position()
    }

    /// Encodes up to `max_rows` rows of the inner source into `out`;
    /// returns the number of code rows appended.
    pub fn next_codes(&mut self, max_rows: usize, out: &mut BinaryDataset) -> usize {
        assert_eq!(out.bits(), self.bits, "code width mismatch");
        self.block_buf.clear();
        let got = self.inner.next_block(max_rows, &mut self.block_buf);
        let d = self.inner.dim();
        for row in self.block_buf.chunks_exact(d) {
            for (b, h) in self.code_buf.iter_mut().zip(&self.hyperplanes) {
                let proj: f64 = row.iter().zip(h).map(|(&x, &w)| (x - 0.5) * w).sum();
                *b = proj >= 0.0;
            }
            out.push_bits(&self.code_buf).expect("width fixed");
        }
        got
    }

    /// Rewinds to code row 0.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Fast-forwards past `rows` code rows (no encoding work is done for
    /// skipped rows beyond advancing the inner source).
    pub fn skip(&mut self, rows: usize) {
        self.inner.skip(rows);
    }

    /// Drains the remaining rows into one in-memory [`BinaryDataset`].
    pub fn materialize(&mut self) -> BinaryDataset {
        let mut codes = BinaryDataset::with_bits(self.bits).expect("bits > 0");
        while self.next_codes(DEFAULT_BLOCK_ROWS, &mut codes) > 0 {}
        codes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::lsh_codes;
    use crate::synth::{generate, generate_labeled};

    fn cfg() -> SyntheticConfig {
        SyntheticConfig {
            n: 157,
            d: 24,
            clusters: 5,
            cluster_std: 0.04,
            stat_uniformity: 0.4,
            seed: 9,
        }
    }

    #[test]
    fn synth_stream_equals_one_shot_any_block_size() {
        let whole = generate(&cfg());
        for block in [1usize, 7, 64, 157, 1000] {
            let mut src = SynthSource::new(cfg());
            let mut flat = Vec::new();
            let mut pulls = 0;
            while src.next_block(block, &mut flat) > 0 {
                pulls += 1;
            }
            assert_eq!(pulls, 157usize.div_ceil(block));
            let streamed = Dataset::from_flat(flat, 24).unwrap();
            assert_eq!(streamed, whole, "block size {block}");
        }
    }

    #[test]
    fn synth_labels_stream_identically() {
        let (whole, labels) = generate_labeled(&cfg());
        let mut src = SynthSource::new(cfg());
        let mut flat = Vec::new();
        let mut got_labels = Vec::new();
        while src.next_block_labeled(13, &mut flat, &mut got_labels) > 0 {}
        assert_eq!(Dataset::from_flat(flat, 24).unwrap(), whole);
        assert_eq!(got_labels, labels);
    }

    #[test]
    fn synth_reset_and_skip_reproduce_rows() {
        let whole = generate(&cfg());
        let mut src = SynthSource::new(cfg());
        let mut flat = Vec::new();
        src.next_block(40, &mut flat);
        src.reset();
        assert_eq!(src.position(), 0);
        // Fresh source, skip straight to row 100: rows must match the
        // one-shot tail exactly (mid-stream resume).
        let mut resumed = SynthSource::new(cfg());
        resumed.skip(100);
        assert_eq!(resumed.position(), 100);
        let mut tail = Vec::new();
        resumed.next_block(usize::MAX, &mut tail);
        assert_eq!(tail.len(), 57 * 24);
        assert_eq!(&tail[..24], whole.row(100));
        assert_eq!(&tail[56 * 24..], whole.row(156));
    }

    #[test]
    fn in_memory_source_streams_the_borrowed_rows() {
        let whole = generate(&cfg());
        for block in [1usize, 7, 157, 1000] {
            let mut src = InMemorySource::new(&whole);
            let mut flat = Vec::new();
            while src.next_block(block, &mut flat) > 0 {}
            assert_eq!(
                Dataset::from_flat(flat, 24).unwrap(),
                whole,
                "block {block}"
            );
            assert_eq!(src.position(), 157);
        }
        let mut src = InMemorySource::new(&whole);
        src.skip(100);
        let mut tail = Vec::new();
        assert_eq!(src.next_block(usize::MAX, &mut tail), 57);
        assert_eq!(&tail[..24], whole.row(100));
        src.reset();
        assert_eq!(src.materialize(), whole);
    }

    #[test]
    fn timeseries_windows_stream_identically() {
        let series = generate_series(&SeriesConfig {
            len: 600,
            pattern_len: 32,
            noise: 0.02,
            seed: 3,
        });
        let w = 32;
        let total = series.values.len() - w + 1;
        let mut src = TimeseriesWindowSource::from_values(series.values.clone(), w);
        assert_eq!(src.total(), total);
        let whole = src.materialize();
        src.reset();
        let mut flat = Vec::new();
        while src.next_block(7, &mut flat) > 0 {}
        assert_eq!(Dataset::from_flat(flat, w).unwrap(), whole);
        for (i, row) in whole.rows().enumerate() {
            assert_eq!(row, &series.values[i..i + w]);
        }
    }

    #[test]
    fn lsh_codes_stream_identically() {
        let data = generate(&cfg());
        let whole = lsh_codes(&data, 96, 77);
        for block in [1usize, 7, 157] {
            let mut src = LshCodeSource::new(SynthSource::new(cfg()), 96, 77);
            let mut codes = BinaryDataset::with_bits(96).unwrap();
            while src.next_codes(block, &mut codes) > 0 {}
            assert_eq!(codes, whole, "block size {block}");
        }
    }
}
