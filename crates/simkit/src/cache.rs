//! Set-associative LRU cache simulator.
//!
//! The analytical `T_cache` model in [`crate::cost`] assumes linear scans
//! miss all levels while small working sets (bound tables, centroids) stay
//! resident. This trace-driven simulator validates those assumptions: the
//! profiling crate replays sampled access traces through a three-level
//! hierarchy and compares observed miss rates with the model. It also backs
//! the cache-geometry ablation bench.

use crate::constants;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }

    /// The paper machine's L1 (32 KB, 8-way).
    pub fn l1() -> Self {
        Self {
            capacity_bytes: constants::L1_BYTES,
            ways: constants::L1_WAYS,
            line_bytes: constants::LINE_BYTES,
        }
    }

    /// The paper machine's L2 (256 KB, 8-way).
    pub fn l2() -> Self {
        Self {
            capacity_bytes: constants::L2_BYTES,
            ways: constants::L2_WAYS,
            line_bytes: constants::LINE_BYTES,
        }
    }

    /// The paper machine's L3 (20 MB, 16-way).
    pub fn l3() -> Self {
        Self {
            capacity_bytes: constants::L3_BYTES,
            ways: constants::L3_WAYS,
            line_bytes: constants::LINE_BYTES,
        }
    }
}

/// One set-associative LRU cache level.
///
/// Each set keeps its ways ordered most-recently-used first; tags are line
/// addresses.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<u64>>, // MRU-first tag lists, one per set
    hits: u64,
    misses: u64,
}

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in L1.
    L1,
    /// Hit in L2.
    L2,
    /// Hit in L3.
    L3,
    /// Missed all levels; serviced by memory.
    Memory,
}

impl Cache {
    /// An empty cache of the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.sets() > 0, "cache must have at least one set");
        Self {
            cfg,
            sets: vec![Vec::new(); cfg.sets()],
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses install the line,
    /// evicting LRU.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes as u64;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set.remove(pos);
            set.insert(0, line);
            self.hits += 1;
            true
        } else {
            set.insert(0, line);
            if set.len() > self.cfg.ways {
                set.pop();
            }
            self.misses += 1;
            false
        }
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }
}

/// Per-level access statistics of a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// Accesses serviced by L1.
    pub l1_hits: u64,
    /// Accesses serviced by L2.
    pub l2_hits: u64,
    /// Accesses serviced by L3.
    pub l3_hits: u64,
    /// Accesses that went to memory.
    pub memory: u64,
}

impl HierarchyStats {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.l3_hits + self.memory
    }

    /// Average access latency in nanoseconds under the paper machine's
    /// level latencies.
    pub fn avg_latency_ns(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let cyc = constants::CYCLE_NS;
        (self.l1_hits as f64 * constants::L1_LATENCY_CYCLES * cyc
            + self.l2_hits as f64 * constants::L2_LATENCY_CYCLES * cyc
            + self.l3_hits as f64 * constants::L3_LATENCY_CYCLES * cyc
            + self.memory as f64 * constants::DRAM_LATENCY_NS)
            / total as f64
    }
}

/// A three-level inclusive hierarchy (L1 → L2 → L3 → memory).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    l3: Cache,
    stats: HierarchyStats,
}

impl Hierarchy {
    /// The paper machine's hierarchy.
    pub fn paper_machine() -> Self {
        Self::new(CacheConfig::l1(), CacheConfig::l2(), CacheConfig::l3())
    }

    /// A custom hierarchy.
    pub fn new(l1: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        Self {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            l3: Cache::new(l3),
            stats: HierarchyStats::default(),
        }
    }

    /// Accesses one address, probing levels in order.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
            return AccessOutcome::L1;
        }
        if self.l2.access(addr) {
            self.stats.l2_hits += 1;
            return AccessOutcome::L2;
        }
        if self.l3.access(addr) {
            self.stats.l3_hits += 1;
            return AccessOutcome::L3;
        }
        self.stats.memory += 1;
        AccessOutcome::Memory
    }

    /// Streams a sequential byte range as word-granular accesses.
    pub fn stream_range(&mut self, start: u64, bytes: u64, word: u64) {
        let mut a = start;
        while a < start + bytes {
            self.access(a);
            a += word;
        }
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way sets, 8 sets → lines mapping to set 0: 0, 8, 16 (×64B).
        let mut c = tiny();
        assert_eq!(c.config().sets(), 8);
        c.access(0); // line 0 → set 0
        c.access(8 * 64); // line 8 → set 0
        c.access(16 * 64); // line 16 → set 0, evicts line 0
        assert!(!c.access(0), "line 0 must have been evicted");
        assert!(c.access(16 * 64));
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut c = tiny();
        // 1024 B capacity = 16 lines; touch 8 lines twice.
        for round in 0..2 {
            for i in 0..8u64 {
                let hit = c.access(i * 64);
                if round == 1 {
                    assert!(hit);
                }
            }
        }
        assert_eq!(c.miss_ratio(), 0.5);
    }

    #[test]
    fn streaming_scan_misses_every_line() {
        let mut h = Hierarchy::new(
            CacheConfig {
                capacity_bytes: 1024,
                ways: 2,
                line_bytes: 64,
            },
            CacheConfig {
                capacity_bytes: 4096,
                ways: 4,
                line_bytes: 64,
            },
            CacheConfig {
                capacity_bytes: 16384,
                ways: 4,
                line_bytes: 64,
            },
        );
        // Stream 1 MB once: far beyond L3 → every line fetch goes to
        // memory; within-line word accesses hit L1.
        h.stream_range(0, 1 << 20, 8);
        let s = *h.stats();
        let lines = (1u64 << 20) / 64;
        assert_eq!(s.memory, lines);
        assert_eq!(s.l1_hits, s.total() - lines);
        // Line-granular miss cost dominates the average latency relative
        // to pure L1 latency.
        assert!(s.avg_latency_ns() > 2.0 * constants::L1_LATENCY_CYCLES * constants::CYCLE_NS);
    }

    #[test]
    fn second_pass_over_small_data_hits_l1() {
        let mut h = Hierarchy::paper_machine();
        h.stream_range(0, 16 * 1024, 8);
        let cold = h.stats().memory;
        h.stream_range(0, 16 * 1024, 8);
        assert_eq!(h.stats().memory, cold, "second pass must not touch memory");
    }

    #[test]
    fn paper_machine_geometry() {
        let h = Hierarchy::paper_machine();
        assert_eq!(h.l1.config().capacity_bytes, 32 * 1024);
        assert_eq!(h.l3.config().sets(), 20 * 1024 * 1024 / (16 * 64));
    }

    #[test]
    fn stats_latency_zero_when_untouched() {
        assert_eq!(HierarchyStats::default().avg_latency_ns(), 0.0);
    }
}
