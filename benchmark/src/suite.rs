//! Every workload, each in a fresh process, untraced then traced;
//! `--repeat N` makes N such sets and compares them.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use simpim_obs::Json;

use crate::spec::{self, Better};
use crate::stats::{median, quartiles};
use crate::Args;

/// Modeled numbers and exact counts: equal to the last bit between two
/// sets of one commit and one seed, or the simulator changed.
const BIT_EQUAL: [&str; 4] = [
    "core.modeled_pass_us",
    "e2e.modeled_us_per_op",
    "mining.refined_per_query",
    "mining.pruned_frac",
];

/// Runs one workload in a child process; returns its metrics when the
/// child exited 0 and reported `correct`.
fn child(args: &Args, workload: &str, trace: bool) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--git-sha", &args.git_sha])
        .arg("--out-dir")
        .arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawn workload process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let result = Json::parse(stdout.lines().last()?).ok()?;
    if !out.status.success() || !result.get("correct")?.as_bool()? {
        return None;
    }
    Some(
        result
            .get("metrics")?
            .as_obj()?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    )
}

pub fn run(args: &Args) -> ExitCode {
    // (workload, metric) -> one value per set.
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    println!(
        "seed {} (default {}, held out {}), {} s per run, {} set(s)",
        args.seed,
        spec::DEFAULT_SEED,
        spec::HELD_OUT_SEED,
        args.seconds,
        args.repeat
    );
    for set in 0..args.repeat {
        println!("== set {} of {}", set + 1, args.repeat);
        for wl in &spec::WORKLOADS {
            for trace in [false, true] {
                match child(args, wl.name, trace) {
                    Some(metrics) => {
                        for (name, v) in metrics {
                            values.entry((wl.name, name)).or_default().push(v);
                        }
                    }
                    None => {
                        println!("FAILED: {} trace={}", wl.name, u8::from(trace));
                        ok = false;
                    }
                }
            }
        }
    }

    println!(
        "\n{:<16} {:<30} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for ((workload, name), v) in &values {
        let Some(metric) = spec::metric(name) else {
            continue;
        };
        let mid = median(v);
        // Quartiles need four values; below that the range stands in.
        let (lo, hi) = if v.len() >= 4 {
            quartiles(v)
        } else {
            v.iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
        };
        let spread = if mid == 0.0 {
            0.0
        } else {
            (hi - lo) / mid.abs()
        };
        let verdict = if BIT_EQUAL.contains(&name.as_str()) {
            if v.iter().all(|x| x.to_bits() == v[0].to_bits()) {
                "bit-equal"
            } else {
                ok = false;
                "NOT BIT-EQUAL"
            }
        } else {
            match metric.bound {
                Some(bound) if v.len() > 1 && spread > bound => {
                    ok = false;
                    "DISAGREE"
                }
                Some(_) => "ok",
                None => "",
            }
        };
        println!(
            "{:<16} {:<30} {:>14.6} {:>14.6} {:>14.6} {:>7.1}% {:>6}  {}{}",
            workload,
            name,
            mid,
            lo,
            hi,
            100.0 * spread,
            metric
                .bound
                .map_or(String::new(), |b| format!("{:.0}%", 100.0 * b)),
            verdict,
            match metric.better {
                Better::Lower => "",
                Better::Higher => " (higher is better)",
            }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("\nFAILED: a run was incorrect or two sets disagree beyond a bound");
        ExitCode::FAILURE
    }
}
