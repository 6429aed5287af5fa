//! Cross-crate integration: the eight k-means variants (4 algorithms × 2
//! architectures) must produce identical clusterings from identical seeds.

use simpim::core::executor::{ExecutorConfig, PimExecutor};
use simpim::datasets::{generate, SyntheticConfig};
use simpim::mining::kmeans::drake::kmeans_drake;
use simpim::mining::kmeans::elkan::kmeans_elkan;
use simpim::mining::kmeans::lloyd::kmeans_lloyd;
use simpim::mining::kmeans::pim::PimAssist;
use simpim::mining::kmeans::yinyang::kmeans_yinyang;
use simpim::mining::kmeans::{KmeansConfig, KmeansResult};
use simpim::similarity::{Dataset, NormalizedDataset};
use simpim::simkit::HostParams;

type Algo = fn(
    &Dataset,
    &KmeansConfig,
    Option<&mut PimAssist<'_>>,
) -> Result<KmeansResult, simpim::mining::MiningError>;

const ALGOS: [(&str, Algo); 4] = [
    ("Standard", kmeans_lloyd as Algo),
    ("Elkan", kmeans_elkan as Algo),
    ("Drake", kmeans_drake as Algo),
    ("Yinyang", kmeans_yinyang as Algo),
];

fn data() -> Dataset {
    generate(&SyntheticConfig {
        n: 600,
        d: 64,
        clusters: 8,
        cluster_std: 0.04,
        stat_uniformity: 0.1,
        seed: 404,
    })
}

#[test]
fn all_eight_variants_agree() {
    let ds = data();
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    for k in [4usize, 16, 40] {
        let cfg = KmeansConfig {
            k,
            max_iters: 30,
            seed: 5,
        };
        let reference = kmeans_lloyd(&ds, &cfg, None).unwrap();
        for (name, algo) in ALGOS {
            let base = algo(&ds, &cfg, None).unwrap();
            assert_eq!(base.assignments, reference.assignments, "{name} k={k}");
            assert!((base.inertia - reference.inertia).abs() < 1e-9);

            let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
            let mut assist = PimAssist::new(&mut exec);
            let pim = algo(&ds, &cfg, Some(&mut assist)).unwrap();
            assert_eq!(pim.assignments, reference.assignments, "{name}-PIM k={k}");
            assert!(pim.report.pim.total_ns() > 0.0, "{name}-PIM must use PIM");
        }
    }
}

#[test]
fn pim_reduces_exact_distance_work() {
    let ds = data();
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let cfg = KmeansConfig {
        k: 16,
        max_iters: 30,
        seed: 5,
    };
    let base = kmeans_lloyd(&ds, &cfg, None).unwrap();
    let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
    let mut assist = PimAssist::new(&mut exec);
    let pim = kmeans_lloyd(&ds, &cfg, Some(&mut assist)).unwrap();
    let base_ed = base.report.profile.get("ED").unwrap().counters.mul;
    let pim_ed = pim.report.profile.get("ED").unwrap().counters.mul;
    assert!(
        pim_ed * 2 < base_ed,
        "LB_PIM-ED must prune most centers: {pim_ed} vs {base_ed}"
    );
}

#[test]
fn model_time_speedups_match_paper_ordering() {
    // Standard gains the most from PIM; Elkan the least (its bound-update
    // pass is not offloadable) — the ordering of Section VI-D.
    let ds = data();
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let cfg = KmeansConfig {
        k: 32,
        max_iters: 20,
        seed: 5,
    };
    let params = HostParams::default();
    let mut speedups = std::collections::BTreeMap::new();
    for (name, algo) in ALGOS {
        let base = algo(&ds, &cfg, None).unwrap();
        let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
        let mut assist = PimAssist::new(&mut exec);
        let pim = algo(&ds, &cfg, Some(&mut assist)).unwrap();
        speedups.insert(
            name,
            base.report.total_ns(&params) / pim.report.total_ns(&params),
        );
    }
    assert!(speedups["Standard"] > speedups["Elkan"], "{speedups:?}");
    for (name, s) in &speedups {
        assert!(*s > 1.0, "{name} must not slow down: {s}");
    }
}

/// FNV-1a over every observable field of a run: assignments, centre bits,
/// iterations, inertia bits, each profile function's counters and calls,
/// and the PIM timing bits.
fn run_hash(r: &KmeansResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &a in &r.assignments {
        eat(&(a as u64).to_le_bytes());
    }
    for v in r.centers.iter().flatten() {
        eat(&v.to_bits().to_le_bytes());
    }
    eat(&(r.iterations as u64).to_le_bytes());
    eat(&r.inertia.to_bits().to_le_bytes());
    for name in r.report.profile.names() {
        let rec = r.report.profile.get(name).unwrap();
        let c = rec.counters;
        eat(name.as_bytes());
        for v in [
            c.arith,
            c.mul,
            c.div,
            c.sqrt,
            c.cmp,
            c.branch,
            c.bytes_streamed,
            c.random_fetches,
            c.bytes_written,
            rec.calls,
        ] {
            eat(&v.to_le_bytes());
        }
    }
    let t = &r.report.pim;
    for v in [t.data_pass_ns, t.gather_ns, t.bus_ns, t.buffer_ns] {
        eat(&v.to_bits().to_le_bytes());
    }
    eat(&t.buffer_waves.to_le_bytes());
    h
}

#[test]
fn kmeans_runs_are_pinned() {
    // Every field of all eight variants, including runs cut off at
    // `max_iters` (Lloyd then still moves its centres once more) and
    // `k = 1`. The constant was recorded before the four algorithms
    // shared one iteration loop; any change to what a run computes or
    // charges moves it.
    const PINNED: u64 = 0xa7d3_4b41_5397_5e56;
    let ds = generate(&SyntheticConfig {
        n: 160,
        d: 24,
        clusters: 5,
        cluster_std: 0.06,
        stat_uniformity: 0.1,
        seed: 808,
    });
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let mut all = 0xcbf2_9ce4_8422_2325u64;
    for k in [1usize, 4, 16] {
        for max_iters in [1usize, 2, 5, 30] {
            let cfg = KmeansConfig {
                k,
                max_iters,
                seed: 3,
            };
            for (name, algo) in ALGOS {
                let mut exec =
                    PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
                let mut assist = PimAssist::new(&mut exec);
                let runs = [
                    algo(&ds, &cfg, None).unwrap(),
                    algo(&ds, &cfg, Some(&mut assist)).unwrap(),
                ];
                for (arch, run) in ["host", "pim"].iter().zip(&runs) {
                    let h = run_hash(run);
                    eprintln!("{name}-{arch} k={k} max_iters={max_iters}: {h:016x}");
                    all = (all ^ h).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    assert_eq!(all, PINNED, "got {all:#018x}; per-run hashes above");
}

#[test]
fn zero_iterations_is_an_invalid_argument() {
    let ds = data();
    let cfg = KmeansConfig {
        k: 4,
        max_iters: 0,
        seed: 5,
    };
    for (name, algo) in ALGOS {
        let err = algo(&ds, &cfg, None).unwrap_err();
        assert!(
            matches!(err, simpim::mining::MiningError::InvalidArgument { .. }),
            "{name}: {err}"
        );
    }
}

#[test]
fn centers_stay_normalized() {
    // PIM queries clamp centers into [0,1]; verify converged centers are
    // already there (means of normalized points).
    let ds = data();
    let cfg = KmeansConfig {
        k: 8,
        max_iters: 30,
        seed: 5,
    };
    let res = kmeans_lloyd(&ds, &cfg, None).unwrap();
    for c in &res.centers {
        assert!(c.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
