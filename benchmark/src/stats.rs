//! Order statistics over raw samples. Nothing here goes through
//! `simpim_obs::Histogram`, whose buckets are about 15 % wide.

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, with the two middle values averaged for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so `--repeat` prints the spread the
/// driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = q as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Latency samples in nanoseconds, summarised in milliseconds.
pub struct Latencies {
    sorted: Vec<u64>,
}

/// Samples a tail percentile needs before it is reported at all.
pub const TAIL_MIN_SAMPLES: usize = 1_000;

impl Latencies {
    pub fn new(mut ns: Vec<u64>) -> Self {
        ns.sort_unstable();
        Self { sorted: ns }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// 0 when there is no sample.
    pub fn p50_ms(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        percentile(&self.sorted, 0.5) as f64 / 1e6
    }

    /// 0 below [`TAIL_MIN_SAMPLES`]: a weaker percentile is never
    /// reported under the p99 name.
    pub fn p99_ms(&self) -> f64 {
        if self.sorted.len() < TAIL_MIN_SAMPLES {
            return 0.0;
        }
        percentile(&self.sorted, 0.99) as f64 / 1e6
    }
}

/// SplitMix64: seeds the op mix and the arrival schedule.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}
