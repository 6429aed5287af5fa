//! kernel_sweep — per-backend SIMD kernel trajectory on the fixed
//! Fig. 13 shape (DESIGN.md §14).
//!
//! For every kernel backend the running CPU supports (always `scalar`;
//! `avx2` on an x86_64 CPU with AVX2), pinned via
//! `simpim_kern::with_backend`, the sweep measures:
//!
//! * **per-kernel ns/element** for all eleven dispatched kernels (f64
//!   dot / norm_sq / fused dot+norm / squared Euclidean and its
//!   abandoning form over the MSD workload's rows, u64 XOR- and
//!   AND-popcount MACs over packed words, the exact u32 MAC of the
//!   array-level crossbar pass over a 20-bit operand matrix of the
//!   workload's shape, and the multi-query `dot_multi_f64`,
//!   `dot_multi_u8` and `cell_bound_multi`, each described below),
//!   best-of-several passes so a preempted pass doesn't pollute the
//!   trajectory;
//! * **end-to-end kNN throughput**: Standard-PIM kNN (`knn_pim_ed`)
//!   over the workload's queries — the path that exercises both the f64
//!   refinement kernels and the crossbar's AND-popcount MAC;
//! * an **FNV-1a result hash** covering every kernel output bit and
//!   every neighbor (index, distance bits). The binary aborts unless all
//!   backends produce the *same* hash (the bit-identity contract), and
//!   unless the hash is invariant across 1 and 4 `simpim-par` workers.
//!   `dot_u32`'s and `dot_multi_f64`'s outputs are hashed into fields of
//!   their own (`dot_u32_hash`, `dot_multi_f64_hash`, held to the same
//!   all-backends-equal rule, and the second also to the hash of the
//!   same crossbar-chunk sums made by one `dot_u32` per query), so
//!   `result_hash` stays comparable with artifacts that predate them;
//! * **the coalesced crossbar pass**: `PimArray::dot_batch_multi` of
//!   every `Q` in 1..=8 queries on one 10 000 × 420 region at one worker,
//!   as milliseconds of pass per query — what a batch saves over `Q`
//!   single passes, which the repo benchmark's `Q = 1` replay cannot
//!   show — beside `dot_multi_f64`'s ns per operand at eight queries and
//!   its speedup over eight `dot_u32` calls of the same tier;
//! * **the coarse-first pass**: `PimArray::dot_batch_coarse` of `Q` in
//!   2..=8 queries on the same region, in ns per operand and query, and
//!   its kernel `dot_multi_u8` over the workload's 8-bit cells at eight
//!   queries prepared once, its sums hashed into `dot_multi_u8_hash` —
//!   equal on all backends, and to one call per query. The eight-query
//!   read is then taken apart on the region's own cells
//!   (`coarse_split_q8_ns_per_operand`): the whole read beside its
//!   kernel in the read's 256-row calls, the rest being the bounds, the
//!   gather bracket and the fan-out; the kernel in one call over the
//!   region and with its queries prepared again for every call; the
//!   kernel on 16 rows that stay in L1 (its compute peak); and the
//!   kernel on each of two threads that run it at once, which reads
//!   twice the one-thread figure where the host's two workers share a
//!   core;
//! * **the abandoning distance and the batch refinement built on it**:
//!   `euclidean_sq_until` in ns per element of the whole row when every
//!   row is abandoned about 1/8 and 1/2 of the way in and when none is
//!   (its outcomes hashed into `euclidean_sq_until_hash`, equal on all
//!   backends), and `refine_resident_batch` of `Q` ∈ {1, 4, 8} queries on
//!   one 5 000 × 960 shard with all-zero bounds (a dense column, no
//!   `tighten`: every live row is a candidate) and the shard's cell
//!   plane at one worker, as milliseconds of refinement per query;
//! * **the cell-plane bound**: `cell_bound_multi` over that shard's cells
//!   at eight queries, in ns per cell and query, its sums hashed into
//!   `cell_bound_hash` — equal on all backends, and to one portable call
//!   per query.
//!
//! The artifact (`BENCH_kernels.json`) stamps each backend's numbers and
//! its speedup over forced-scalar, seeding the per-PR BENCH trajectory
//! the ROADMAP gates on (`simpim report --assert-no-regress`). CI runs
//! the sweep under `SIMPIM_KERNEL=scalar` and `=auto` and diffs the
//! hashes; it also fails if the detected backend on an x86_64 runner is
//! `scalar` (the vectorized tiers went missing).

use std::time::Instant;

use simpim_bench::{fmt_x, load, prepare_executor, print_table, BenchRun, Workload, QUERIES};
use simpim_bounds::BoundCascade;
use simpim_core::executor::PimExecutor;
use simpim_datasets::PaperDataset;
use simpim_kern::{self as kern, Backend};
use simpim_mining::knn::resident::{push_cells, refine_resident_batch, BatchQuery};
use simpim_obs::Json;
use simpim_par as par;
use simpim_reram::array::RegionId;
use simpim_reram::{AccWidth, PimArray, PimConfig};
use simpim_similarity::{Dataset, Measure};
use simpim_simkit::OpCounters;

const K: usize = 10;
/// Packed words per popcount-MAC operand (≈ a 2.1 Mbit LSH code stripe).
const POPCOUNT_WORDS: usize = 32_768;
/// Minimum measurement budget per kernel per backend.
const MIN_PASSES: usize = 5;
const MAX_PASSES: usize = 200;
const BUDGET_NS: u64 = 40_000_000;
/// Rows of the coalesced-pass region (with the workload's 420 dimensions,
/// one shard of the repo benchmark's serve-pruned) and the batch sizes it
/// is read with: every one a coalesced batch can have.
const PASS_ROWS: usize = 10_000;
const PASS_QUERIES: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// The batch-refinement shard: one shard of the repo benchmark's
/// serve-dense, and the batch sizes it is refined with.
const REFINE_SHAPE: (usize, usize) = (5_000, 960);
const REFINE_QUERIES: [usize; 3] = [1, 4, 8];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `pass` repeatedly (best-of, fixed budget) and returns
/// (ns per element, hash of the first pass's outputs).
fn measure(elems_per_pass: usize, mut pass: impl FnMut() -> u64) -> (f64, u64) {
    let hash = pass(); // warmup + hashed outputs
    let mut best = u64::MAX;
    let mut spent = 0u64;
    let mut runs = 0usize;
    while (runs < MIN_PASSES || spent < BUDGET_NS) && runs < MAX_PASSES {
        let t0 = Instant::now();
        std::hint::black_box(pass());
        let ns = t0.elapsed().as_nanos() as u64;
        best = best.min(ns);
        spent += ns;
        runs += 1;
    }
    (best as f64 / elems_per_pass.max(1) as f64, hash)
}

/// Deterministic xorshift64* word stream for the popcount operands.
fn words(len: usize, mut seed: u64) -> Vec<u64> {
    (0..len)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
        })
        .collect()
}

/// Three measurements of one kind as a JSON object.
fn triple(names: [&str; 3], values: [f64; 3]) -> Json {
    Json::obj(names.into_iter().zip(values.map(Json::Num)))
}

/// The coarse read at eight queries over the pass region, taken apart:
/// ns per operand (cell) and query.
struct CoarseSplit {
    /// `dot_batch_coarse` as a whole.
    total: f64,
    /// `dot_multi_u8` over the region's cells in the read's 256-row calls.
    kernel: f64,
    /// The same in one call over the whole region.
    one_call: f64,
    /// The 256-row calls, each preparing its queries again.
    prepared_per_call: f64,
    /// One 16-row block of one segment a row, in L1, called over and over.
    l1_peak: f64,
    /// The 256-row calls on each of two threads running them at once.
    two_workers: f64,
}

impl CoarseSplit {
    /// What the read spends beside its kernel: the bounds, the gather
    /// bracket and the fan-out.
    fn rest(&self) -> f64 {
        self.total - self.kernel
    }

    fn json(&self) -> Json {
        Json::obj([
            ("total", Json::Num(self.total)),
            ("kernel", Json::Num(self.kernel)),
            ("bound_bracket", Json::Num(self.rest())),
            ("kernel_one_call", Json::Num(self.one_call)),
            (
                "kernel_prepared_per_call",
                Json::Num(self.prepared_per_call),
            ),
            ("kernel_l1_peak", Json::Num(self.l1_peak)),
            ("kernel_two_workers", Json::Num(self.two_workers)),
        ])
    }
}

/// Per-backend measurements, in `BACKENDS` order.
struct Row {
    name: &'static str,
    dot_ns: f64,
    norm_ns: f64,
    fused_ns: f64,
    euclid_ns: f64,
    xorpop_ns: f64,
    andpop_ns: f64,
    dot_u32_ns: f64,
    dot_multi_f64_ns: f64,
    dot_multi_u8_ns: f64,
    cell_bound_ns: f64,
    /// `euclidean_sq_until` abandoning at 1/8, at 1/2, never.
    until_ns: [f64; 3],
    /// `dot_batch_multi` milliseconds per query, in `PASS_QUERIES` order.
    pass_ms_per_query: [f64; 8],
    /// `dot_batch_coarse` ns per operand and query, at 2..=8 queries.
    coarse_ns: [f64; 7],
    coarse_split: CoarseSplit,
    /// `refine_resident_batch` milliseconds per query, in
    /// `REFINE_QUERIES` order.
    refine_ms_per_query: [f64; 3],
    knn_wall_ms: f64,
    knn_qps: f64,
    hash: u64,
    dot_u32_hash: u64,
    dot_multi_f64_hash: u64,
    dot_multi_u8_hash: u64,
    until_hash: u64,
    cell_bound_hash: u64,
}

/// One timed kNN pass over the workload; returns (hash, wall ns).
fn knn_pass(exec: &mut PimExecutor, w: &Workload) -> (u64, u64) {
    use simpim_mining::knn::pim::knn_pim_ed;
    let t0 = Instant::now();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for q in &w.queries {
        let res = knn_pim_ed(exec, &w.data, &BoundCascade::empty(), q, K).expect("prepared");
        for (i, v) in &res.neighbors {
            h = fnv1a(h, &(*i as u64).to_le_bytes());
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }
    (h, t0.elapsed().as_nanos() as u64)
}

fn sweep_backend(
    b: Backend,
    exec: &mut PimExecutor,
    w: &Workload,
    (wa, wb): (&[u64], &[u64]),
    (operands, operand_queries): (&[u32], &[Vec<u32>]),
    (pim, region, pass_operands): (&mut PimArray, RegionId, &[u32]),
    (shard, shard_queries, cells): (&Dataset, &[Vec<f64>], &[u8]),
) -> Row {
    kern::with_backend(b, || {
        let n = w.data.len();
        let d = w.data.dim();
        let q0 = &w.queries[0];
        let f64_elems = n * d;

        let hash_all = |f: &dyn Fn(&[f64]) -> u64| -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for i in 0..n {
                h = fnv1a(h, &f(w.data.row(i)).to_le_bytes());
            }
            h
        };

        let (dot_ns, h_dot) = measure(f64_elems, || hash_all(&|r| kern::dot(r, q0).to_bits()));
        let (norm_ns, h_norm) = measure(f64_elems, || hash_all(&|r| kern::norm_sq(r).to_bits()));
        let (fused_ns, h_fused) = measure(f64_elems, || {
            hash_all(&|r| {
                let (dp, nr) = kern::dot_norm_sq(r, q0);
                dp.to_bits() ^ nr.to_bits().rotate_left(17)
            })
        });
        let (euclid_ns, h_euclid) = measure(f64_elems, || {
            hash_all(&|r| kern::euclidean_sq(r, q0).to_bits())
        });
        // Per row, a limit just under the partial sum at the first abandon
        // test at or past 1/8 (1/2) of the row; or none at all.
        let stride = kern::LANES * kern::scalar::UNTIL_BLOCKS;
        let mut until_hash = 0xcbf2_9ce4_8422_2325u64;
        let until_ns = [Some(d / 8), Some(d / 2), None].map(|cut| {
            let limits: Vec<f64> = (0..n)
                .map(|i| {
                    cut.map_or(f64::INFINITY, |cut| {
                        let cut = cut.next_multiple_of(stride).min(d);
                        kern::euclidean_sq(&w.data.row(i)[..cut], &q0[..cut]) * (1.0 - 1e-9)
                    })
                })
                .collect();
            let (ns, h) = measure(f64_elems, || {
                (0..n).fold(0xcbf2_9ce4_8422_2325u64, |h, i| {
                    let v = kern::euclidean_sq_until(w.data.row(i), q0, limits[i]);
                    fnv1a(h, &v.map_or(u64::MAX, f64::to_bits).to_le_bytes())
                })
            });
            until_hash = fnv1a(until_hash, &h.to_le_bytes());
            ns
        });
        let (xorpop_ns, h_xor) = measure(POPCOUNT_WORDS, || kern::xor_popcount(wa, wb));
        let (andpop_ns, h_and) = measure(POPCOUNT_WORDS, || kern::and_popcount(wa, wb));
        let (dot_u32_ns, dot_u32_hash) = measure(operands.len(), || {
            operands
                .chunks_exact(d)
                .fold(0xcbf2_9ce4_8422_2325u64, |h, row| {
                    fnv1a(h, &kern::dot_u32(row, &operand_queries[0]).to_le_bytes())
                })
        });
        // Eight queries per row load, per query the row's total and its
        // largest sum over a chunk of the default 256-operand crossbar:
        // the shared read's inner step.
        let seg = PimConfig::default().crossbar.size;
        let as_f64: Vec<Vec<f64>> = operand_queries
            .iter()
            .map(|q| q.iter().map(|&v| f64::from(v)).collect())
            .collect();
        let eight: Vec<&[f64]> = as_f64.iter().map(Vec::as_slice).collect();
        // Timed without the hash (eight FNV-1a folds per row would cost
        // about as much as the kernel), hashed in a pass of its own.
        let mut sums = [0.0; 2 * kern::MULTI_QUERIES];
        let (dot_multi_f64_ns, _) = measure(8 * operands.len(), || {
            operands.chunks_exact(d).fold(0u64, |t, row| {
                kern::dot_multi_f64(row, &eight, seg, &mut sums);
                t.wrapping_add(sums[0] as u64)
            })
        });
        let dot_multi_f64_hash =
            operands
                .chunks_exact(d)
                .fold(0xcbf2_9ce4_8422_2325u64, |h, row| {
                    kern::dot_multi_f64(row, &eight, seg, &mut sums);
                    sums.iter()
                        .fold(h, |h, &sum| fnv1a(h, &(sum as u64).to_le_bytes()))
                });
        // The same totals and largest chunk sums from `dot_u32`.
        let composed = operands
            .chunks_exact(d)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, row| {
                let per_query = operand_queries.iter().map(|q| {
                    let chunks = (0..d).step_by(seg).map(|start| {
                        let end = (start + seg).min(d);
                        kern::dot_u32(&row[start..end], &q[start..end])
                    });
                    chunks.fold((0, 0), |(total, top), sum| (total + sum, sum.max(top)))
                });
                let (totals, tops): (Vec<u64>, Vec<u64>) = per_query.unzip();
                totals
                    .iter()
                    .chain(&tops)
                    .fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
            });
        assert_eq!(
            dot_multi_f64_hash,
            composed,
            "{}: dot_multi_f64 differs from one dot_u32 per query",
            b.name()
        );
        let pass_ms_per_query = PASS_QUERIES.map(|q| {
            let passes: Vec<(RegionId, &[u32])> = operand_queries[..q]
                .iter()
                .map(|query| (region, &query[..]))
                .collect();
            let (ns_per_query, _) = par::with_threads(1, || {
                measure(q, || {
                    let out = pim.dot_batch_multi(&passes, AccWidth::U64);
                    out.expect("programmed region").len() as u64
                })
            });
            ns_per_query / 1e6
        });
        let coarse_ns = std::array::from_fn(|i| {
            let passes: Vec<(RegionId, &[u32])> = operand_queries[..i + 2]
                .iter()
                .map(|query| (region, &query[..]))
                .collect();
            let (ns, _) = par::with_threads(1, || {
                measure(PASS_ROWS * d * passes.len(), || {
                    let out = pim.dot_batch_coarse(&passes, AccWidth::U64);
                    out.expect("programmed region").len() as u64
                })
            });
            ns
        });
        // The coarse pass's kernel over the operands' 8-bit cells (the
        // 20-bit operands shifted by 12), at eight queries a block of
        // rows, against one call per query.
        let to_cells = |v: &[u32]| -> Vec<u8> { v.iter().map(|&x| (x >> 12) as u8).collect() };
        let (plane, query_cells) = (to_cells(operands), to_cells(&operand_queries.concat()));
        let u8_queries: Vec<&[u8]> = query_cells.chunks_exact(d).collect();
        let eight_u8 = kern::U8Queries::new(d, &u8_queries);
        // Per call of `rows` rows of `plane` the kernel's outputs folded by
        // `fold` (timed with a plain sum, hashed in a pass of its own).
        let u8_pass =
            |plane: &[u8], rows: usize, qs: &kern::U8Queries, fold: &dyn Fn(u64, &[u64]) -> u64| {
                let mut out = vec![0u64; 2 * qs.len() * rows];
                plane
                    .chunks(rows * d)
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, rows| {
                        let out = &mut out[..2 * qs.len() * rows.len() / d];
                        kern::dot_multi_u8(rows, qs, seg, out);
                        fold(h, out)
                    })
            };
        let summed = |t: u64, out: &[u64]| t.wrapping_add(out[0]);
        let hashed = |h, out: &[u64]| out.iter().fold(h, |h: u64, v| fnv1a(h, &v.to_le_bytes()));
        let u8_hash = |qs: &kern::U8Queries| u8_pass(&plane, 256, qs, &hashed);
        let (dot_multi_u8_ns, _) =
            measure(8 * plane.len(), || u8_pass(&plane, 256, &eight_u8, &summed));
        let dot_multi_u8_hash = u8_hash(&eight_u8);
        let one_by_one: Vec<u64> = u8_queries
            .iter()
            .map(|q| u8_hash(&kern::U8Queries::new(d, &[q])))
            .collect();
        let multi_by_one: Vec<u64> = (0..8)
            .map(|j| {
                let mut out = vec![0u64; 2 * 8 * 256];
                plane
                    .chunks(256 * d)
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, rows| {
                        let n = rows.len() / d;
                        kern::dot_multi_u8(rows, &eight_u8, seg, &mut out[..16 * n]);
                        let (total, top) = (&out[j * n..][..n], &out[(8 + j) * n..][..n]);
                        total
                            .iter()
                            .chain(top)
                            .fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
                    })
            })
            .collect();
        assert_eq!(
            one_by_one,
            multi_by_one,
            "{}: dot_multi_u8 differs from one query a call",
            b.name()
        );
        // The coarse read at eight queries taken apart on its own region's
        // cells. The read, its kernel in the read's 256-row calls, and
        // those calls on two threads at once run in alternating rounds,
        // the best of each, so that a busy spell of the host slows none
        // of them alone; then the kernel in one call, with its queries
        // prepared again for every call, and on 16 rows of one segment
        // that stay in L1.
        let pass_plane = to_cells(pass_operands);
        let cell_macs = 8 * pass_plane.len();
        let per_task = || u8_pass(&pass_plane, 256, &eight_u8, &summed);
        let eight: Vec<(RegionId, &[u32])> =
            operand_queries.iter().map(|q| (region, &q[..])).collect();
        let start = std::sync::Barrier::new(2);
        let on_two = || {
            start.wait();
            measure(cell_macs, per_task).0
        };
        let (mut total, mut kernel, mut two_workers) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let (read, _) = par::with_threads(1, || {
                measure(cell_macs, || {
                    let out = pim.dot_batch_coarse(&eight, AccWidth::U64);
                    out.expect("programmed region").len() as u64
                })
            });
            total = total.min(read);
            kernel = kernel.min(measure(cell_macs, per_task).0);
            let both = std::thread::scope(|scope| {
                let other = scope.spawn(on_two);
                (on_two() + other.join().expect("a kernel thread")) / 2.0
            });
            two_workers = two_workers.min(both);
        }
        let (one_call, _) = measure(cell_macs, || {
            u8_pass(&pass_plane, PASS_ROWS, &eight_u8, &summed)
        });
        let (prepared_per_call, _) = measure(cell_macs, || {
            let mut out = vec![0u64; 2 * 8 * 256];
            pass_plane.chunks(256 * d).fold(0u64, |t, rows| {
                let qs = kern::U8Queries::new(d, &u8_queries);
                let out = &mut out[..16 * rows.len() / d];
                kern::dot_multi_u8(rows, &qs, seg, out);
                t.wrapping_add(out[0])
            })
        });
        let l1_rows = &pass_plane[..16 * d];
        let (l1_peak, _) = measure(cell_macs, || {
            let mut out = [0u64; 2 * 8 * 16];
            (0..PASS_ROWS / 16).fold(0u64, |t, _| {
                kern::dot_multi_u8(std::hint::black_box(l1_rows), &eight_u8, d, &mut out);
                t.wrapping_add(out[0])
            })
        });
        let coarse_split = CoarseSplit {
            total,
            kernel,
            one_call,
            prepared_per_call,
            l1_peak,
            two_workers,
        };

        // The cell plane's bound at eight queries a row (hashed while
        // timed: eight folds a row are noise beside 7 680 cell tests),
        // against one portable call per query.
        let (sd, mut query_cells) = (shard.dim(), Vec::new());
        push_cells(&shard_queries.concat(), &mut query_cells);
        let cell_queries: Vec<&[u8]> = query_cells.chunks_exact(sd).collect();
        let cell_hash = |sums: &dyn Fn(&[u8], &mut [u64])| {
            let (mut h, mut out) = (0xcbf2_9ce4_8422_2325u64, [0u64; kern::MULTI_QUERIES]);
            for row in cells.chunks_exact(sd) {
                sums(row, &mut out);
                h = out.iter().fold(h, |h, v| fnv1a(h, &v.to_le_bytes()));
            }
            h
        };
        let (cell_bound_ns, cell_bound_hash) = measure(cells.len() * 8, || {
            cell_hash(&|row, out| kern::cell_bound_multi(row, &cell_queries, out))
        });
        let one_by_one = cell_hash(&|row, out| {
            for (j, q) in cell_queries.iter().enumerate() {
                kern::scalar::cell_bound_multi(row, &[q], &mut out[j..]);
            }
        });
        assert_eq!(cell_bound_hash, one_by_one, "cells/{}", b.name());

        let ids: Vec<usize> = (0..shard.len()).collect();
        let (live, zeros) = (vec![true; shard.len()], vec![0.0; shard.len()]);
        let refine_ms_per_query = REFINE_QUERIES.map(|q| {
            let batch: Vec<BatchQuery<'_>> = shard_queries[..q]
                .iter()
                .map(|query| BatchQuery {
                    query,
                    k: K,
                    bounds: &zeros,
                    tighten: None,
                })
                .collect();
            let (ns_per_query, _) = par::with_threads(1, || {
                measure(q, || {
                    let mut counters = OpCounters::new();
                    let out = refine_resident_batch(
                        shard,
                        &ids,
                        &live,
                        Some(cells),
                        &batch,
                        Measure::EuclideanSq,
                        &mut counters,
                    );
                    out.expect("Euclidean rows").len() as u64
                })
            });
            ns_per_query / 1e6
        });

        // End-to-end Standard-PIM kNN: timed at ambient workers, then
        // re-run pinned to 1 and 4 workers — all three hashes must match
        // (kernels compose with simpim-par chunking bit-identically).
        // The executor is programmed once in `main` and shared by every
        // (backend, workers) cell: queries never reprogram a bank, and
        // the bit-identity contract makes the programmed state
        // backend-independent, so there is nothing to rebuild per tier.
        let (h_knn, knn_ns) = knn_pass(exec, w);
        let (h_1t, _) = par::with_threads(1, || knn_pass(exec, w));
        let (h_4t, _) = par::with_threads(4, || knn_pass(exec, w));
        assert_eq!(h_knn, h_1t, "{}: kNN diverged at 1 worker", b.name());
        assert_eq!(h_knn, h_4t, "{}: kNN diverged at 4 workers", b.name());

        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for part in [h_dot, h_norm, h_fused, h_euclid, h_xor, h_and, h_knn] {
            hash = fnv1a(hash, &part.to_le_bytes());
        }
        let knn_s = knn_ns as f64 / 1e9;
        Row {
            name: b.name(),
            dot_ns,
            norm_ns,
            fused_ns,
            euclid_ns,
            xorpop_ns,
            andpop_ns,
            dot_u32_ns,
            dot_multi_f64_ns,
            dot_multi_u8_ns,
            cell_bound_ns,
            until_ns,
            pass_ms_per_query,
            coarse_ns,
            coarse_split,
            refine_ms_per_query,
            knn_wall_ms: knn_ns as f64 / 1e6,
            knn_qps: w.queries.len() as f64 / knn_s.max(1e-12),
            hash,
            dot_u32_hash,
            dot_multi_f64_hash,
            dot_multi_u8_hash,
            until_hash,
            cell_bound_hash,
        }
    })
}

fn main() {
    let mut run = BenchRun::start("kernels");
    let w = load(PaperDataset::Msd);
    run.set_dataset(&w.dataset.spec());
    run.config_entry("k", Json::Num(K as f64));
    run.config_entry("popcount_words", Json::Num(POPCOUNT_WORDS as f64));

    let detected = kern::detected_backend();
    let active = kern::backend();
    let wa = words(POPCOUNT_WORDS, 0x9e37_79b9_7f4a_7c15);
    let wb = words(POPCOUNT_WORDS, 0xd1b5_4a32_d192_ed03);
    // A stored-operand matrix of the workload's shape plus the queries of
    // a full batch, at the 20 bits α = 1e6 quantises to: what
    // `PimArray::dot_batch` reads. The same queries read the pass region,
    // programmed into 32-bit slots like the executor's.
    let narrow = |ws: Vec<u64>| -> Vec<u32> { ws.into_iter().map(|x| (x >> 44) as u32).collect() };
    let d = w.data.dim();
    let operands = narrow(words(w.data.len() * d, 0xa076_1d64_78bd_642f));
    let operand_queries: Vec<Vec<u32>> = (0..8)
        .map(|j| narrow(words(d, 0xe703_7ed1_a0b4_28db + j)))
        .collect();
    let mut pim = PimArray::new(PimConfig::default()).expect("default platform");
    let pass_operands = narrow(words(PASS_ROWS * d, 0x8ebc_6af0_9c88_c6e3));
    let pass_region = pim
        .program_region(&pass_operands, PASS_ROWS, d, 32)
        .expect("the default array holds one shard")
        .region;

    let shard = simpim_datasets::generate(&simpim_datasets::SyntheticConfig {
        n: REFINE_SHAPE.0,
        d: REFINE_SHAPE.1,
        clusters: 512,
        cluster_std: 0.08,
        stat_uniformity: 0.5,
        seed: 12,
    });
    let shard_queries = simpim_datasets::sample_queries(&shard, 8, 0.03, 12);
    let mut cells = Vec::new();
    push_cells(shard.as_flat(), &mut cells);

    // One dataset, one programmed executor, shared by every
    // (backend, workers) measurement cell.
    let mut exec = prepare_executor(&w.data).expect("fits");

    let tiers: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|b| b.is_supported())
        .collect();
    let rows: Vec<Row> = tiers
        .iter()
        .map(|&b| {
            sweep_backend(
                b,
                &mut exec,
                &w,
                (&wa, &wb),
                (&operands, &operand_queries),
                (&mut pim, pass_region, &pass_operands),
                (&shard, &shard_queries, &cells),
            )
        })
        .collect();

    let scalar = &rows[0];
    assert_eq!(scalar.name, "scalar");
    for r in &rows[1..] {
        for (what, got, want) in [
            (
                "the float and popcount kernels and kNN",
                r.hash,
                scalar.hash,
            ),
            ("dot_u32", r.dot_u32_hash, scalar.dot_u32_hash),
            (
                "dot_multi_f64",
                r.dot_multi_f64_hash,
                scalar.dot_multi_f64_hash,
            ),
            (
                "dot_multi_u8",
                r.dot_multi_u8_hash,
                scalar.dot_multi_u8_hash,
            ),
            ("euclidean_sq_until", r.until_hash, scalar.until_hash),
            (
                "cell_bound_multi",
                r.cell_bound_hash,
                scalar.cell_bound_hash,
            ),
        ] {
            assert_eq!(got, want, "backend '{}': {what} differ from scalar", r.name);
        }
    }
    let hash = scalar.hash;

    print_table(
        &format!(
            "kernel_sweep: MSD-shaped fig13 (n={}, d={}, k={K}, {} queries, detected={}, active={})",
            w.data.len(),
            w.data.dim(),
            QUERIES,
            detected.name(),
            active.name()
        ),
        &[
            "backend", "dot", "norm", "fused", "euclid", "until 1/8", "1/2", "never", "xorpop",
            "andpop", "dot_u32", "multi", "u8", "cell", "pass Q=1", "Q=2", "Q=3", "Q=4", "Q=5", "Q=6",
            "Q=7", "Q=8", "coarse Q=2", "Q=3", "Q=4", "Q=5", "Q=6", "Q=7", "Q=8", "refine Q=1", "Q=4",
            "Q=8",
            "knn qps", "vs scalar",
        ],
        &rows
            .iter()
            .map(|r| {
                let ns = [r.dot_ns, r.norm_ns, r.fused_ns, r.euclid_ns]
                    .into_iter()
                    .chain(r.until_ns)
                    .chain([r.xorpop_ns, r.andpop_ns, r.dot_u32_ns, r.dot_multi_f64_ns])
                    .chain([r.dot_multi_u8_ns, r.cell_bound_ns]);
                std::iter::once(r.name.to_string())
                    .chain(ns.map(|v| format!("{v:.3}")))
                    .chain(r.pass_ms_per_query.map(|v| format!("{v:.2}")))
                    .chain(r.coarse_ns.map(|v| format!("{v:.3}")))
                    .chain(r.refine_ms_per_query.map(|v| format!("{v:.2}")))
                    .chain([
                        format!("{:.0}", r.knn_qps),
                        fmt_x(scalar.dot_ns / r.dot_ns.max(1e-12)),
                    ])
                    .collect()
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "result hash {hash:016x} identical across {} backends and 1|4|ambient workers \
         (ns/element columns, until per element of the whole row; popcount per u64 word; \
         u8 per cell and query, cell per cell and query, at eight queries; pass columns: ms \
         per query of one dot_batch_multi over {PASS_ROWS} x {d} at one worker; coarse \
         columns: ns per operand and query of dot_batch_coarse on it; refine columns: ms per query \
         of one refine_resident_batch over {} x {} with zero bounds and the cell plane at \
         one worker)",
        rows.len(),
        REFINE_SHAPE.0,
        REFINE_SHAPE.1
    );

    for r in &rows {
        let c = &r.coarse_split;
        println!(
            "{}: coarse read at Q=8 {:.4} ns per operand and query = kernel {:.4} + bounds and \
             bracket {:.4}; kernel in one call {:.4}, with queries prepared per call {:.4}, in L1 \
             {:.4}; on each of two threads at once {:.4} (one thread {:.4})",
            r.name,
            c.total,
            c.kernel,
            c.rest(),
            c.one_call,
            c.prepared_per_call,
            c.l1_peak,
            c.two_workers,
            c.kernel
        );
    }

    let backends_json: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::Str(r.name.into())),
                ("dot_ns_per_elem", Json::Num(r.dot_ns)),
                ("norm_sq_ns_per_elem", Json::Num(r.norm_ns)),
                ("dot_norm_sq_ns_per_elem", Json::Num(r.fused_ns)),
                ("euclidean_sq_ns_per_elem", Json::Num(r.euclid_ns)),
                (
                    "euclidean_sq_until_ns_per_elem",
                    triple(["abandon_1_8", "abandon_1_2", "never"], r.until_ns),
                ),
                ("xor_popcount_ns_per_word", Json::Num(r.xorpop_ns)),
                ("and_popcount_ns_per_word", Json::Num(r.andpop_ns)),
                ("dot_u32_ns_per_elem", Json::Num(r.dot_u32_ns)),
                ("dot_multi_f64_ns_per_elem", Json::Num(r.dot_multi_f64_ns)),
                ("dot_multi_u8_ns_per_elem", Json::Num(r.dot_multi_u8_ns)),
                (
                    "coarse_ns_per_operand",
                    Json::obj(
                        (2..=8)
                            .map(|q| format!("q{q}"))
                            .zip(r.coarse_ns.map(Json::Num)),
                    ),
                ),
                ("coarse_split_q8_ns_per_operand", r.coarse_split.json()),
                ("cell_bound_ns_per_elem", Json::Num(r.cell_bound_ns)),
                (
                    "pass_ms_per_query",
                    Json::obj(
                        PASS_QUERIES
                            .map(|q| format!("q{q}"))
                            .into_iter()
                            .zip(r.pass_ms_per_query.map(Json::Num)),
                    ),
                ),
                (
                    "refine_ms_per_query",
                    triple(["q1", "q4", "q8"], r.refine_ms_per_query),
                ),
                ("knn_wall_ms", Json::Num(r.knn_wall_ms)),
                ("knn_qps", Json::Num(r.knn_qps)),
                (
                    "speedup_dot",
                    Json::Num(scalar.dot_ns / r.dot_ns.max(1e-12)),
                ),
                (
                    "speedup_euclidean",
                    Json::Num(scalar.euclid_ns / r.euclid_ns.max(1e-12)),
                ),
                (
                    "speedup_xor_popcount",
                    Json::Num(scalar.xorpop_ns / r.xorpop_ns.max(1e-12)),
                ),
                (
                    "speedup_dot_u32",
                    Json::Num(scalar.dot_u32_ns / r.dot_u32_ns.max(1e-12)),
                ),
                (
                    "speedup_dot_multi_f64",
                    Json::Num(r.dot_u32_ns / r.dot_multi_f64_ns.max(1e-12)),
                ),
                (
                    "speedup_knn",
                    Json::Num(r.knn_qps / scalar.knn_qps.max(1e-12)),
                ),
            ])
        })
        .collect();

    // The active backend's end-to-end throughput is the headline metric
    // future PRs gate on with `--assert-no-regress`.
    let active_row = rows
        .iter()
        .find(|r| r.name == active.name())
        .unwrap_or(scalar);
    run.push_extra(
        "kernels",
        Json::obj([
            ("detected", Json::Str(detected.name().into())),
            ("active", Json::Str(active.name().into())),
            ("result_hash", Json::Str(format!("{hash:016x}"))),
            (
                "dot_u32_hash",
                Json::Str(format!("{:016x}", scalar.dot_u32_hash)),
            ),
            (
                "dot_multi_f64_hash",
                Json::Str(format!("{:016x}", scalar.dot_multi_f64_hash)),
            ),
            (
                "dot_multi_u8_hash",
                Json::Str(format!("{:016x}", scalar.dot_multi_u8_hash)),
            ),
            (
                "euclidean_sq_until_hash",
                Json::Str(format!("{:016x}", scalar.until_hash)),
            ),
            (
                "cell_bound_hash",
                Json::Str(format!("{:016x}", scalar.cell_bound_hash)),
            ),
            ("threads_invariant", Json::Bool(true)),
            ("knn_qps", Json::Num(active_row.knn_qps)),
            (
                "speedup_dot",
                Json::Num(scalar.dot_ns / active_row.dot_ns.max(1e-12)),
            ),
            (
                "speedup_xor_popcount",
                Json::Num(scalar.xorpop_ns / active_row.xorpop_ns.max(1e-12)),
            ),
            ("backends", Json::Arr(backends_json)),
        ]),
    );
    run.note_stage(
        "kernel_sweep/knn_active",
        (active_row.knn_wall_ms * 1e6) as u64,
        w.queries.len() as u64,
        0,
        0,
    );
    run.finish();
}
