//! The benchmark's own answers: a brute-force top-k that shares no code
//! with the crates under test, and a model of the live rows for the
//! workload that mutates them.

use simpim_similarity::Dataset;

pub type Neighbor = (usize, f64);

/// Distances may differ from the reference by this much; ids may not
/// differ at all.
pub const DIST_TOLERANCE: f64 = 1e-9;

/// Squared Euclidean distance, four independent partial sums.
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..4 {
            let t = x[l] - y[l];
            acc[l] += t * t;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let t = x - y;
        tail += t * t;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The `k` smallest `(distance, id)` pairs seen, ties broken by id.
pub struct TopK {
    k: usize,
    best: Vec<Neighbor>,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        Self {
            k,
            best: Vec::with_capacity(k + 1),
        }
    }

    pub fn offer(&mut self, id: usize, dist: f64) {
        if self.best.len() == self.k {
            let (wid, wd) = self.best[self.k - 1];
            if (dist, id) >= (wd, wid) {
                return;
            }
        }
        let at = self
            .best
            .partition_point(|&(bid, bd)| (bd, bid) < (dist, id));
        self.best.insert(at, (id, dist));
        self.best.truncate(self.k);
    }

    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.best
    }
}

/// Same ids in the same order, distances within [`DIST_TOLERANCE`].
pub fn same_answer(got: &[Neighbor], want: &[Neighbor]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && (g.1 - w.1).abs() <= DIST_TOLERANCE)
}

/// Reference answers for every query of the pool, computed once on all
/// cores before anything is timed.
pub struct Reference {
    /// `answers[q]` is the top-k of pool query `q` over the initial rows.
    pub answers: Vec<Vec<Neighbor>>,
    /// `base[q][i]`: distance from pool query `q` to initial row `i`.
    /// Kept only when rows will change (`keep_distances`).
    base: Vec<Vec<f64>>,
}

impl Reference {
    pub fn build(data: &Dataset, pool: &[Vec<f64>], k: usize, keep_distances: bool) -> Self {
        // One `(answer, distances)` pair per query; the distances are
        // dropped at once unless they are kept.
        let answer = |q: &Vec<f64>| {
            let dists: Vec<f64> = data.rows().map(|r| dist_sq(r, q)).collect();
            let mut top = TopK::new(k);
            for (i, &d) in dists.iter().enumerate() {
                top.offer(i, d);
            }
            let kept = if keep_distances { dists } else { Vec::new() };
            (top.into_sorted(), kept)
        };
        let threads = crate::sys::nproc().min(pool.len()).max(1);
        let per = pool.len().div_ceil(threads);
        let (answers, base): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
            let handles: Vec<_> = pool
                .chunks(per)
                .map(|chunk| s.spawn(|| chunk.iter().map(answer).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .unzip()
        });
        Self {
            answers,
            base: if keep_distances { base } else { Vec::new() },
        }
    }
}

/// What the live rows must be after every mutation applied so far, in
/// submission order: the engine applies commands in arrival order, so a
/// query sees exactly the mutations submitted before it.
pub struct LiveModel<'a> {
    reference: &'a Reference,
    pool: &'a [Vec<f64>],
    initial_live: Vec<bool>,
    /// `(id, row, live)` of every insert so far.
    inserted: Vec<(usize, &'a [f64], bool)>,
    next_id: usize,
}

impl<'a> LiveModel<'a> {
    pub fn new(reference: &'a Reference, pool: &'a [Vec<f64>], initial_rows: usize) -> Self {
        assert_eq!(reference.base.len(), pool.len(), "distances were not kept");
        Self {
            reference,
            pool,
            initial_live: vec![true; initial_rows],
            inserted: Vec::new(),
            next_id: initial_rows,
        }
    }

    /// Applies an insert; returns the id the engine must assign.
    pub fn insert(&mut self, row: &'a [f64]) -> usize {
        let id = self.next_id;
        self.inserted.push((id, row, true));
        self.next_id += 1;
        id
    }

    /// Applies a delete; returns whether the id was live.
    pub fn delete(&mut self, id: usize) -> bool {
        let slot = if id < self.initial_live.len() {
            self.initial_live.get_mut(id)
        } else {
            self.inserted
                .get_mut(id - self.initial_live.len())
                .map(|e| &mut e.2)
        };
        match slot {
            Some(live) if *live => {
                *live = false;
                true
            }
            _ => false,
        }
    }

    /// Top-k of pool query `q` over the rows live right now.
    pub fn top_k(&self, q: usize, k: usize) -> Vec<Neighbor> {
        let mut top = TopK::new(k);
        for (i, (&d, &live)) in self.reference.base[q]
            .iter()
            .zip(&self.initial_live)
            .enumerate()
        {
            if live {
                top.offer(i, d);
            }
        }
        for &(id, row, live) in &self.inserted {
            if live {
                top.offer(id, dist_sq(row, &self.pool[q]));
            }
        }
        top.into_sorted()
    }
}
