//! PIM-oracle estimation (Section IV-C, Eq. 2).
//!
//! `T_PIM-oracle = T_total − Σ_{fᵢ ∈ F} T_fᵢ`: the runtime if every
//! offloadable function cost nothing — a lower bound on any PIM
//! implementation and the yardstick of Figs. 7, 13(b), 16 and 18.

use crate::functions::FunctionProfiler;
use simpim_simkit::HostParams;

/// Oracle estimate for one algorithm profile.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Full model time (`T_total`), ns.
    pub total_ns: f64,
    /// Time attributed to the offloadable set `F`, ns.
    pub offloadable_ns: f64,
    /// `T_PIM-oracle` (Eq. 2), ns.
    pub oracle_ns: f64,
    /// `T_total / T_PIM-oracle` (∞ when fully offloadable).
    pub speedup_ceiling: f64,
    /// Which functions were counted into `F`.
    pub offloaded: Vec<String>,
}

/// Computes Eq. 2 over a function profile. `offloadable` names the set `F`
/// (e.g. `["ED", "LB_FNN^7"]`); names missing from the profile are
/// ignored.
pub fn oracle_report(
    profile: &FunctionProfiler,
    params: &HostParams,
    offloadable: &[&str],
) -> OracleReport {
    let total_ns = profile.total_time(params).total_ns();
    let mut offloadable_ns = 0.0;
    let mut offloaded = Vec::new();
    for name in offloadable {
        let t = profile.function_time(name, params).total_ns();
        if t > 0.0 {
            offloadable_ns += t;
            offloaded.push((*name).to_string());
        }
    }
    let oracle_ns = (total_ns - offloadable_ns).max(0.0);
    let speedup_ceiling = if oracle_ns > 0.0 {
        total_ns / oracle_ns
    } else {
        f64::INFINITY
    };
    OracleReport {
        total_ns,
        offloadable_ns,
        oracle_ns,
        speedup_ceiling,
        offloaded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_simkit::OpCounters;

    fn profile() -> FunctionProfiler {
        let mut p = FunctionProfiler::new();
        let mut ed = OpCounters::new();
        for _ in 0..10_000 {
            ed.euclidean_kernel(420, 420 * 8);
        }
        p.record("ED", ed);
        let mut other = OpCounters::new();
        other.cmp = 10_000;
        other.branch = 10_000;
        p.record("other", other);
        p
    }

    #[test]
    fn oracle_subtracts_offloadable_time() {
        let p = profile();
        let params = HostParams::default();
        let r = oracle_report(&p, &params, &["ED"]);
        assert!(
            r.speedup_ceiling > 50.0,
            "ED dominates a Standard profile: {r:?}"
        );
        assert!((r.total_ns - (r.offloadable_ns + r.oracle_ns)).abs() < 1e-6);
        assert_eq!(r.offloaded, vec!["ED"]);
    }

    #[test]
    fn unknown_functions_are_ignored() {
        let p = profile();
        let r = oracle_report(&p, &HostParams::default(), &["ED", "LB_MISSING"]);
        assert_eq!(r.offloaded, vec!["ED"]);
    }

    #[test]
    fn empty_offload_set_keeps_total() {
        let p = profile();
        let r = oracle_report(&p, &HostParams::default(), &[]);
        assert_eq!(r.oracle_ns, r.total_ns);
        assert!((r.speedup_ceiling - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_offload_is_infinite_ceiling() {
        let mut p = FunctionProfiler::new();
        let mut c = OpCounters::new();
        c.arith = 100;
        p.record("ED", c);
        let r = oracle_report(&p, &HostParams::default(), &["ED"]);
        assert!(r.speedup_ceiling.is_infinite());
        assert_eq!(r.oracle_ns, 0.0);
    }
}
