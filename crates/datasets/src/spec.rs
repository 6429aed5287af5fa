//! The eight datasets of Table 6, with the structural knobs that drive the
//! generators.

/// Identifies one of the paper's evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// ImageNet features: 2 340 173 × 150 (kNN).
    ImageNet,
    /// Million Song Dataset: 992 272 × 420 (kNN; the default kNN dataset).
    Msd,
    /// GIST descriptors: 1 000 000 × 960 (kNN; weak LB_FNN pruning).
    Gist,
    /// Trevi patches: 100 000 × 4096 (kNN; highest dimensionality).
    Trevi,
    /// YearPredictionMSD: 515 345 × 90 (k-means).
    Year,
    /// Notre Dame patches: 332 668 × 128 (k-means).
    Notre,
    /// NUS-WIDE features: 269 648 × 500 (k-means; the default k-means
    /// dataset).
    NusWide,
    /// Enron bag-of-words: 100 000 × 1369 (k-means).
    Enron,
}

/// Generation parameters for one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Display name matching the paper.
    pub name: &'static str,
    /// Full-scale object count `N` (Table 6).
    pub full_n: usize,
    /// Dimensionality `d` (Table 6).
    pub d: usize,
    /// Number of latent clusters (prunability: more, tighter clusters →
    /// bounds separate candidates well).
    pub clusters: usize,
    /// Within-cluster standard deviation of each coordinate.
    pub cluster_std: f64,
    /// Segment-statistic uniformity in `[0, 1]`: 0 leaves cluster
    /// structure untouched; 1 forces every object's per-segment mean/σ to
    /// a shared template, emulating GIST's resistance to segmented bounds.
    pub stat_uniformity: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl PaperDataset {
    /// All eight datasets in Table 6 order.
    pub const ALL: [PaperDataset; 8] = [
        PaperDataset::ImageNet,
        PaperDataset::Msd,
        PaperDataset::Gist,
        PaperDataset::Trevi,
        PaperDataset::Year,
        PaperDataset::Notre,
        PaperDataset::NusWide,
        PaperDataset::Enron,
    ];

    /// The four kNN datasets (Fig. 13a order).
    pub const KNN: [PaperDataset; 4] = [
        PaperDataset::ImageNet,
        PaperDataset::Msd,
        PaperDataset::Trevi,
        PaperDataset::Gist,
    ];

    /// The four k-means datasets (Table 7 order).
    pub const KMEANS: [PaperDataset; 4] = [
        PaperDataset::Year,
        PaperDataset::Notre,
        PaperDataset::NusWide,
        PaperDataset::Enron,
    ];

    /// The generation spec for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            PaperDataset::ImageNet => DatasetSpec {
                name: "ImageNet",
                full_n: 2_340_173,
                d: 150,
                clusters: 64,
                cluster_std: 0.07,
                stat_uniformity: 0.15,
                seed: 0x11AA_0001,
            },
            PaperDataset::Msd => DatasetSpec {
                name: "MSD",
                full_n: 992_272,
                d: 420,
                clusters: 48,
                cluster_std: 0.05,
                stat_uniformity: 0.05,
                seed: 0x11AA_0002,
            },
            PaperDataset::Gist => DatasetSpec {
                name: "GIST",
                full_n: 1_000_000,
                d: 960,
                clusters: 32,
                cluster_std: 0.08,
                // GIST's hallmark: segmented statistics barely
                // discriminate (Section VI-C's 71.3% approximation).
                stat_uniformity: 0.92,
                seed: 0x11AA_0003,
            },
            PaperDataset::Trevi => DatasetSpec {
                name: "Trevi",
                full_n: 100_000,
                d: 4096,
                clusters: 40,
                cluster_std: 0.05,
                stat_uniformity: 0.10,
                seed: 0x11AA_0004,
            },
            PaperDataset::Year => DatasetSpec {
                name: "Year",
                full_n: 515_345,
                d: 90,
                clusters: 32,
                cluster_std: 0.06,
                stat_uniformity: 0.10,
                seed: 0x11AA_0005,
            },
            PaperDataset::Notre => DatasetSpec {
                name: "Notre",
                full_n: 332_668,
                d: 128,
                clusters: 40,
                cluster_std: 0.06,
                stat_uniformity: 0.15,
                seed: 0x11AA_0006,
            },
            PaperDataset::NusWide => DatasetSpec {
                name: "NUS-WIDE",
                full_n: 269_648,
                d: 500,
                clusters: 48,
                cluster_std: 0.05,
                stat_uniformity: 0.10,
                seed: 0x11AA_0007,
            },
            PaperDataset::Enron => DatasetSpec {
                name: "Enron",
                full_n: 100_000,
                d: 1369,
                clusters: 32,
                cluster_std: 0.06,
                stat_uniformity: 0.20,
                seed: 0x11AA_0008,
            },
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }
}

impl DatasetSpec {
    /// Object count at a scale fraction, at least `min` and at most
    /// `full_n`.
    pub fn scaled_n(&self, fraction: f64, min: usize) -> usize {
        ((self.full_n as f64 * fraction) as usize).clamp(min.min(self.full_n), self.full_n)
    }
}

impl simpim_obs::ToJson for DatasetSpec {
    fn to_json(&self) -> simpim_obs::Json {
        use simpim_obs::Json;
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("full_n", self.full_n.to_json()),
            ("d", self.d.to_json()),
            ("clusters", self.clusters.to_json()),
            ("cluster_std", Json::Num(self.cluster_std)),
            ("stat_uniformity", Json::Num(self.stat_uniformity)),
            ("seed", self.seed.to_json()),
        ])
    }
}

/// Scale fraction from the `SIMPIM_SCALE` environment variable
/// (default `0.01`, clamped to `(0, 1]`).
pub fn env_scale() -> f64 {
    std::env::var("SIMPIM_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| *v > 0.0 && *v <= 1.0)
        .unwrap_or(0.01)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_shapes() {
        assert_eq!(PaperDataset::Msd.spec().full_n, 992_272);
        assert_eq!(PaperDataset::Msd.spec().d, 420);
        assert_eq!(PaperDataset::Trevi.spec().d, 4096);
        assert_eq!(PaperDataset::Gist.spec().d, 960);
        assert_eq!(PaperDataset::Year.spec().d, 90);
        assert_eq!(PaperDataset::Enron.spec().d, 1369);
        assert_eq!(PaperDataset::ALL.len(), 8);
    }

    #[test]
    fn gist_is_the_uniform_one() {
        let max = PaperDataset::ALL
            .iter()
            .max_by(|a, b| {
                a.spec()
                    .stat_uniformity
                    .partial_cmp(&b.spec().stat_uniformity)
                    .unwrap()
            })
            .unwrap();
        assert_eq!(max.name(), "GIST");
    }

    #[test]
    fn scaling_clamps() {
        let s = PaperDataset::Msd.spec();
        assert_eq!(s.scaled_n(1.0, 1), s.full_n);
        assert_eq!(s.scaled_n(0.00001, 5000), 5000);
        assert_eq!(s.scaled_n(0.01, 1000), 9922);
        assert!(s.scaled_n(2.0, 1) <= s.full_n);
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<u64> = PaperDataset::ALL.iter().map(|p| p.spec().seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }
}
