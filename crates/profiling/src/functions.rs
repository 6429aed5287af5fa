//! Function-level profiling (Section IV-B).
//!
//! The paper decomposes an algorithm's runtime into the time spent in each
//! function (`T_total = Σ T_fᵢ + T_other`) using `clock_gettime` scopes.
//! Here every instrumented algorithm attributes deterministic operation
//! counters to named functions; model time per function follows from the
//! `simpim-simkit` cost model, so profiles are exactly reproducible.

use std::collections::BTreeMap;

use simpim_simkit::{HostParams, OpCounters, TimeBreakdown};

/// Accumulated counters for one named function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FunctionRecord {
    /// Operation counters attributed to this function.
    pub counters: OpCounters,
    /// Number of recorded invocations (batch-level, not per-object).
    pub calls: u64,
}

/// The per-function profile of one algorithm run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FunctionProfiler {
    entries: BTreeMap<String, FunctionRecord>,
}

/// The conventional name for un-attributed work (`T_other`).
pub const OTHER: &str = "other";

impl FunctionProfiler {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes `counters` to `name`.
    pub fn record(&mut self, name: &str, counters: OpCounters) {
        let e = self.entries.entry(name.to_string()).or_default();
        e.counters.add(&counters);
        e.calls += 1;
    }

    /// The record for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&FunctionRecord> {
        self.entries.get(name)
    }

    /// All function names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Counters summed over every function.
    pub fn total_counters(&self) -> OpCounters {
        let mut t = OpCounters::new();
        for e in self.entries.values() {
            t.add(&e.counters);
        }
        t
    }

    /// Model time of one function under `params`.
    pub fn function_time(&self, name: &str, params: &HostParams) -> TimeBreakdown {
        self.entries
            .get(name)
            .map(|e| params.evaluate(&e.counters))
            .unwrap_or_default()
    }

    /// Model time of the whole profile.
    pub fn total_time(&self, params: &HostParams) -> TimeBreakdown {
        params.evaluate(&self.total_counters())
    }

    /// The Fig. 6 view: `(name, fraction of total model time)`, sorted by
    /// descending fraction. Fractions sum to 1 for a non-empty profile.
    pub fn fractions(&self, params: &HostParams) -> Vec<(String, f64)> {
        let total = self.total_time(params).total_ns();
        let mut out: Vec<(String, f64)> = self
            .entries
            .iter()
            .map(|(name, e)| {
                let t = params.evaluate(&e.counters).total_ns();
                (name.clone(), if total == 0.0 { 0.0 } else { t / total })
            })
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// The function with the largest model time — the bottleneck the
    /// framework decides to offload (Section III-B).
    pub fn bottleneck(&self, params: &HostParams) -> Option<(String, f64)> {
        self.fractions(params).into_iter().next()
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &FunctionProfiler) {
        for (name, rec) in &other.entries {
            let e = self.entries.entry(name.clone()).or_default();
            e.counters.add(&rec.counters);
            e.calls += rec.calls;
        }
    }

    /// Iterates `(name, record)` pairs in name order (artifact assembly).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FunctionRecord)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl simpim_obs::ToJson for FunctionRecord {
    fn to_json(&self) -> simpim_obs::Json {
        use simpim_obs::Json;
        Json::obj([
            ("counters", self.counters.to_json()),
            ("calls", self.calls.to_json()),
        ])
    }
}

impl simpim_obs::ToJson for FunctionProfiler {
    fn to_json(&self) -> simpim_obs::Json {
        simpim_obs::Json::Obj(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HostParams {
        HostParams::default()
    }

    fn scan_counters(objects: u64, d: u64) -> OpCounters {
        let mut c = OpCounters::new();
        for _ in 0..objects {
            c.euclidean_kernel(d, d * 8);
        }
        c
    }

    #[test]
    fn record_and_fractions() {
        let mut p = FunctionProfiler::new();
        p.record("ED", scan_counters(1000, 400));
        p.record("LB_FNN", scan_counters(1000, 25));
        p.record(
            OTHER,
            OpCounters {
                cmp: 1000,
                branch: 1000,
                ..OpCounters::new()
            },
        );
        let fr = p.fractions(&params());
        assert_eq!(fr.len(), 3);
        assert_eq!(fr[0].0, "ED", "ED dominates a Standard-style profile");
        assert!(fr[0].1 > 0.9);
        let sum: f64 = fr.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(p.bottleneck(&params()).unwrap().0, "ED");
    }

    #[test]
    fn totals_equal_sum_of_parts() {
        let mut p = FunctionProfiler::new();
        p.record("a", scan_counters(10, 10));
        p.record("b", scan_counters(20, 10));
        let total = p.total_time(&params()).total_ns();
        let parts =
            p.function_time("a", &params()).total_ns() + p.function_time("b", &params()).total_ns();
        assert!((total - parts).abs() < 1e-9);
    }

    #[test]
    fn repeated_records_accumulate() {
        let mut p = FunctionProfiler::new();
        p.record("f", scan_counters(5, 8));
        p.record("f", scan_counters(5, 8));
        let r = p.get("f").unwrap();
        assert_eq!(r.calls, 2);
        assert_eq!(r.counters.mul, 2 * 5 * 8);
        assert!(p.get("missing").is_none());
        assert_eq!(
            p.function_time("missing", &params()),
            TimeBreakdown::default()
        );
    }

    #[test]
    fn merge_combines_profiles() {
        let mut a = FunctionProfiler::new();
        a.record("f", scan_counters(5, 8));
        let mut b = FunctionProfiler::new();
        b.record("f", scan_counters(5, 8));
        b.record("g", scan_counters(1, 8));
        a.merge(&b);
        assert_eq!(a.get("f").unwrap().calls, 2);
        assert_eq!(a.names(), vec!["f", "g"]);
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = FunctionProfiler::new();
        assert!(p.fractions(&params()).is_empty());
        assert!(p.bottleneck(&params()).is_none());
        assert_eq!(p.total_time(&params()).total_ns(), 0.0);
    }
}
