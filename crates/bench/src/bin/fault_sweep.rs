//! Fault sweep — robustness of PIM kNN under crossbar hard faults.
//!
//! Beyond-the-paper experiment: injects deterministic stuck-at cells, dead
//! bitlines/wordlines, ADC glitches and wear-out into the crossbars (see
//! `simpim-reram::faults`), runs kNN through the scrub/remap/quarantine
//! recovery pipeline, and checks the results against the fault-free run.
//! The exactness guarantee says every row must match bit-identically: the
//! guard-banded bounds stay valid lower bounds (only pruning power
//! shrinks) and quarantined objects are refined exactly on the host.
//!
//! The second half drills *whole-bank* loss: a replicated shard
//! (`simpim-serve::ReplicaSet`) has 1..R−1 of its banks fail-stopped
//! mid-stream; every answer must stay identical through the failover,
//! and the recovery time to re-replicate the lost banks is reported.
//!
//! Scale the workload with `SIMPIM_BENCH_SCALE` (e.g. `0.01` for a CI
//! smoke run).

use std::time::Instant;

use simpim_bounds::BoundCascade;
use simpim_core::executor::{ExecutorConfig, PimExecutor};
use simpim_datasets::{generate, sample_queries, spec::env_scale, SyntheticConfig};
use simpim_mining::knn::pim::knn_pim_ed;
use simpim_obs::Json;
use simpim_reram::{CrossbarConfig, FaultConfig, PimConfig};
use simpim_serve::{ReplicaSet, ShardConfig};
use simpim_similarity::NormalizedDataset;

fn exec_cfg_with(faults: Option<FaultConfig>, num_crossbars: usize) -> ExecutorConfig {
    ExecutorConfig {
        pim: PimConfig {
            crossbar: CrossbarConfig {
                size: 64,
                adc_bits: 12,
                ..Default::default()
            },
            num_crossbars,
            ..Default::default()
        },
        alpha: 1e6,
        operand_bits: 32,
        double_buffer: false,
        parallel_regions: true,
        faults,
        scrub_interval: 4,
    }
}

fn exec_cfg(faults: Option<FaultConfig>) -> ExecutorConfig {
    exec_cfg_with(faults, 40_000)
}

fn main() {
    let mut run = simpim_bench::BenchRun::start("fault_sweep");
    let n = ((1000.0 * env_scale()) as usize).max(100);
    let k = 10;
    let ds = generate(&SyntheticConfig {
        n,
        d: 64,
        clusters: 5,
        cluster_std: 0.04,
        stat_uniformity: 0.0,
        seed: 33,
    });
    let queries = sample_queries(&ds, 8, 0.02, 5);
    let nds = NormalizedDataset::assert_normalized(ds.clone());

    // Fault-free reference.
    let mut clean = PimExecutor::prepare_euclidean(exec_cfg(None), &nds).expect("prepare");
    let reference: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| {
            knn_pim_ed(&mut clean, &ds, &BoundCascade::empty(), q, k)
                .expect("clean query")
                .indices()
        })
        .collect();

    let scenarios: Vec<(&str, FaultConfig)> = vec![
        (
            "stuck cells (1e-3)",
            FaultConfig {
                stuck_low_rate: 5e-4,
                stuck_high_rate: 5e-4,
                seed: 1,
                ..Default::default()
            },
        ),
        (
            "dead lines (2%)",
            FaultConfig {
                dead_bitline_rate: 0.02,
                dead_wordline_rate: 0.02,
                seed: 2,
                ..Default::default()
            },
        ),
        (
            "glitchy ADC (10%)",
            FaultConfig {
                adc_glitch_rate: 0.1,
                adc_retry_limit: 8,
                seed: 3,
                ..Default::default()
            },
        ),
        (
            "mixed + wear",
            FaultConfig {
                stuck_low_rate: 1e-3,
                dead_wordline_rate: 0.01,
                adc_glitch_rate: 0.05,
                adc_retry_limit: 8,
                endurance_limit: 1_000_000,
                seed: 4,
                ..Default::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, faults) in &scenarios {
        let mut exec =
            PimExecutor::prepare_euclidean(exec_cfg(Some(*faults)), &nds).expect("prepare faulty");
        let mut identical = true;
        for (q, want) in queries.iter().zip(&reference) {
            let got = knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), q, k)
                .expect("faulty query")
                .indices();
            identical &= got == *want;
        }
        let fc = *exec.fault_counters();
        run.note_stage(
            &format!("scenario/{name}"),
            0,
            fc.scrubs,
            fc.faults_detected,
            0,
        );
        rows.push(vec![
            name.to_string(),
            format!("{}", fc.faults_detected),
            format!("{}", fc.adc_retries),
            format!("{}", fc.remapped_crossbars),
            format!("{}", fc.quarantined_rows),
            format!("{}", fc.guarded_bounds),
            format!("{}", fc.fallback_refinements),
            if identical { "yes".into() } else { "NO".into() },
        ]);
        assert!(identical, "{name}: faulty kNN diverged from fault-free");
    }

    // Worst case: a dead crossbar with zero spare capacity. The dead
    // objects cannot be remapped — they are quarantined and every query
    // recovers them by exact host-side refinement.
    {
        let budget = clean.report().crossbars_used;
        let faults = FaultConfig {
            dead_wordline_rate: 0.3,
            seed: 5,
            ..Default::default()
        };
        let mut exec = PimExecutor::prepare_euclidean(exec_cfg_with(Some(faults), budget), &nds)
            .expect("prepare quarantined");
        let mut identical = true;
        for (q, want) in queries.iter().zip(&reference) {
            let got = knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), q, k)
                .expect("quarantined query")
                .indices();
            identical &= got == *want;
        }
        let fc = *exec.fault_counters();
        run.note_stage(
            "scenario/dead, no spares",
            0,
            fc.scrubs,
            fc.faults_detected,
            0,
        );
        rows.push(vec![
            "dead, no spares".to_string(),
            format!("{}", fc.faults_detected),
            format!("{}", fc.adc_retries),
            format!("{}", fc.remapped_crossbars),
            format!("{}", fc.quarantined_rows),
            format!("{}", fc.guarded_bounds),
            format!("{}", fc.fallback_refinements),
            if identical { "yes".into() } else { "NO".into() },
        ]);
        assert!(identical, "quarantine: faulty kNN diverged from fault-free");
        assert!(
            fc.quarantined_rows > 0 && fc.fallback_refinements > 0,
            "the no-spares scenario must exercise quarantine + host fallback"
        );
    }

    // Bank loss: fail-stop whole banks under a replicated shard
    // mid-stream. Detection is traffic-driven (the next routed batch
    // fails over), the repair loop re-replicates each lost bank from a
    // surviving host mirror, and every answer — before, during, and
    // after the loss — must match the fault-free reference.
    let mut loss_rows = Vec::new();
    for (name, r, kills) in [("R=2, kill 1", 2usize, 1usize), ("R=3, kill 2", 3, 2)] {
        let shard_cfg = ShardConfig {
            executor: exec_cfg(None),
            spare_rows: 8,
            ..Default::default()
        };
        let ids: Vec<usize> = (0..ds.len()).collect();
        let mut set = ReplicaSet::open(shard_cfg, r, ds.clone(), ids).expect("open replica set");
        let mut identical = true;
        let half = queries.len() / 2;
        for (q, want) in queries[..half].iter().zip(&reference) {
            let got = set
                .query_batch(std::slice::from_ref(q), &[k], simpim_obs::TraceCtx::NONE, 0)
                .0
                .remove(0);
            let got: Vec<usize> = got
                .expect("pre-kill query")
                .iter()
                .map(|&(id, _)| id)
                .collect();
            identical &= got == *want;
        }
        for victim in 0..kills {
            set.kill_replica(victim);
        }
        let killed = Instant::now();
        // The remaining queries stream through the loss: the first batch
        // after each kill detects it and fails over. Repair interleaves,
        // one replica per query, the way the engine's repair tick does.
        for (q, want) in queries[half..].iter().zip(&reference[half..]) {
            let got = set
                .query_batch(std::slice::from_ref(q), &[k], simpim_obs::TraceCtx::NONE, 0)
                .0
                .remove(0);
            let got: Vec<usize> = got
                .expect("post-kill query")
                .iter()
                .map(|&(id, _)| id)
                .collect();
            identical &= got == *want;
            if set.needs_repair() {
                set.repair_one().expect("repair");
            }
        }
        while set.needs_repair() {
            set.repair_one().expect("repair");
        }
        let recovery_ns = killed.elapsed().as_nanos() as u64;
        let stats = set.stats();
        assert!(identical, "{name}: answers diverged through bank loss");
        assert_eq!(stats.healthy, r, "{name}: all replicas back in routing");
        assert_eq!(stats.repairs as usize, kills, "{name}: every kill repaired");
        assert_eq!(
            stats.degraded_queries, 0,
            "{name}: never degraded (kills < R)"
        );
        run.note_stage(
            &format!("bank_loss/{name}"),
            recovery_ns,
            stats.failovers,
            0,
            0,
        );
        run.push_extra(
            &format!("bank_loss/{name}"),
            Json::obj([
                ("replicas", Json::Num(r as f64)),
                ("killed", Json::Num(kills as f64)),
                ("failovers", Json::Num(stats.failovers as f64)),
                ("repairs", Json::Num(stats.repairs as f64)),
                ("recovery_ns", Json::Num(recovery_ns as f64)),
            ]),
        );
        loss_rows.push(vec![
            name.to_string(),
            format!("{r}"),
            format!("{kills}"),
            format!("{}", stats.failovers),
            format!("{}", stats.repairs),
            format!("{:.2}", recovery_ns as f64 / 1e6),
            if identical { "yes".into() } else { "NO".into() },
        ]);
    }

    simpim_bench::print_table(
        &format!("Fault sweep: PIM kNN under injected crossbar faults (N={n}, k={k})"),
        &[
            "scenario",
            "faults",
            "retries",
            "remaps",
            "quarantined",
            "guarded",
            "fallbacks",
            "top-k identical",
        ],
        &rows,
    );
    println!("recovery pipeline: scrub -> classify -> remap-to-spares -> quarantine");
    println!("exactness: guard-banded bounds stay valid; quarantined rows refined");
    println!("           exactly on the host -- top-k matches fault-free bit-for-bit");
    simpim_bench::print_table(
        &format!("Bank loss: replicated shard with banks fail-stopped mid-stream (N={n}, k={k})"),
        &[
            "scenario",
            "R",
            "killed",
            "failovers",
            "repairs",
            "recovery ms",
            "top-k identical",
        ],
        &loss_rows,
    );
    println!("bank-loss pipeline: detect (routed batch) -> quarantine -> failover ->");
    println!("                    re-replicate from a surviving host mirror -> rejoin");
    run.finish();
}
