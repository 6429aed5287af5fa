//! kNN on Hamming distance: linear scan over binary codes.
//!
//! Per \[28\] (as cited in Section II-C), no technique significantly beats a
//! linear XOR+popcount scan for kNN on binary codes, so `Standard` is the
//! only HD baseline (Fig. 14).

use simpim_similarity::{BinaryDataset, BinaryVecRef};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::knn::{check_args, KnnResult, TopK};
use crate::report::{Architecture, RunReport};

/// Scans all codes, returning the exact k nearest by Hamming distance.
///
/// # Errors
/// [`MiningError::InvalidArgument`] when `k` is outside `1..=N` or the
/// query code width mismatches.
pub fn knn_hamming(
    codes: &BinaryDataset,
    query: &BinaryVecRef<'_>,
    k: usize,
) -> Result<KnnResult, MiningError> {
    check_args(k, codes.len(), query.bits(), codes.bits())?;
    let mut report = RunReport::new(Architecture::ConventionalDram);
    let mut top = TopK::new(k, true);

    let words = codes.bits().div_ceil(64) as u64;
    let mut hd_counters = OpCounters::new();
    let mut other = OpCounters::new();
    for (i, code) in codes.rows().enumerate() {
        // XOR + popcount per word, streaming the stored code.
        hd_counters.arith += 2 * words;
        hd_counters.stream(words * 8);
        let d = code.hamming(query);
        other.prune_test();
        top.offer(i, f64::from(d));
    }
    report.profile.record("HD", hd_counters);
    report.profile.record("other", other);
    Ok(KnnResult {
        neighbors: top.into_sorted(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes() -> BinaryDataset {
        let mut ds = BinaryDataset::with_bits(128).unwrap();
        for i in 0..8u32 {
            let bits: Vec<bool> = (0..128).map(|b| (b as u32).is_multiple_of(i + 2)).collect();
            ds.push_bits(&bits).unwrap();
        }
        ds
    }

    #[test]
    fn self_query_is_nearest() {
        let ds = codes();
        let res = knn_hamming(&ds, &ds.row(3), 1).unwrap();
        assert_eq!(res.indices(), vec![3]);
        assert_eq!(res.neighbors[0].1, 0.0);
    }

    #[test]
    fn matches_brute_force_order() {
        let ds = codes();
        let q = ds.row(0);
        let mut truth: Vec<(usize, u32)> =
            (0..ds.len()).map(|i| (i, q.hamming(&ds.row(i)))).collect();
        truth.sort_by_key(|&(i, d)| (d, i));
        let res = knn_hamming(&ds, &q, 4).unwrap();
        assert_eq!(
            res.indices(),
            truth.iter().take(4).map(|&(i, _)| i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn charges_word_granular_traffic() {
        let ds = codes();
        let res = knn_hamming(&ds, &ds.row(0), 2).unwrap();
        let c = res.report.profile.get("HD").unwrap().counters;
        assert_eq!(c.bytes_streamed, 8 * 2 * 8); // 8 codes × 2 words × 8 B
    }
}
